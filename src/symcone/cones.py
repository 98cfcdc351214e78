"""Symmetric-cone calculus: minors, Delta powers, and the triangular group.

The leading principal minors Delta_1, ..., Delta_r are kept as sparse
polynomials over the unitary z-chart, built once per algebra:

* sym_real / herm_complex: symbolic determinants of the leading blocks,
* herm_quaternion: symbolic Pfaffians of the leading 2j x 2j blocks of the
  skew-symmetric realization (single valued, degree j, equal to the
  quaternionic minors on the cone),
* spin: Delta_1 = x and Delta_2 = x y - |z|^2.

Delta^s uses the successive-difference convention
Delta^s = Delta_1^(s1-s2) ... Delta_r^(sr).

Complex powers on the right tube {Re w in the open cone} use the continuous
branch that is real on the cone. For a leading block of rank <= 2 the
principal logarithm of the evaluated minor is that branch (the argument of
each spectral factor 1 + i nu stays in (-pi/2, pi/2), so their sum cannot
wrap); higher-rank blocks sum the per-eigenvalue logarithms. Arguments with
boundary real part are handled by adaptive path continuation from an interior
anchor, which is how Delta^(-1)(i e) = -i comes out.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from . import eja
from .eja import AlgebraDescriptor, Element
from .poly import SparsePolynomial, det_poly, pfaffian_poly

CONE_TOL = 1e-12
_PATH_MAX_STEPS = 4096  # accepted and halved steps of the branch continuation


# ---------------------------------------------------------------------------
# minor polynomials
# ---------------------------------------------------------------------------

def _entry_polys(alg: AlgebraDescriptor) -> List[List[SparsePolynomial]]:
    """Matrix of chart-variable linear forms for the embedded picture: the
    skew picture J H for quaternions, the full p x q matrix of
    BoundedPoint.as_vector for herm_complex."""
    nv = alg.zdim
    if alg.family == "herm_complex":
        # the full p x q picture: z1 entries, then the half-space block
        var = lambda k: SparsePolynomial.variable(nv, k)
        p, q = alg.size, alg.cols
        return [[var(i * p + j) if j < p else var(alg.dim_m + i * (q - p) + j - p)
                 for j in range(q)] for i in range(p)]
    if alg.family not in ("sym_real", "herm_quaternion"):
        raise ValueError(alg.family)
    # entry (i, j) of embed_matrix(from_zchart(z)) is z @ coef[:, i, j]
    chart = eja._chart(alg)
    n = chart["n"]
    coef = (chart["from_z"] @ chart["embed"]).reshape(nv, n, n)
    if alg.family == "herm_quaternion":
        coef = eja._quat_J(alg.size) @ coef
    return [[SparsePolynomial.linear_form(coef[:, i, j]) for j in range(n)]
            for i in range(n)]


def minor_polynomials(alg: AlgebraDescriptor) -> List[SparsePolynomial]:
    """[Delta_1, ..., Delta_r] over the z-chart variables (cached)."""
    if "minors" in alg._cache:
        return alg._cache["minors"]
    nv = alg.zdim
    if alg.family == "spin":
        a1 = SparsePolynomial.variable(nv, 0)
        a2 = SparsePolynomial.variable(nv, 1)
        d2 = a1 * a2
        for k in range(2, nv):
            bk = SparsePolynomial.variable(nv, k)
            d2 = d2 - 0.5 * (bk * bk)
        out = [a1, d2]
    elif alg.family == "herm_quaternion":
        E = _entry_polys(alg)
        out = []
        for j in range(1, alg.rank + 1):
            block = [row[: 2 * j] for row in E[: 2 * j]]
            out.append(pfaffian_poly(block))
    else:
        E = _entry_polys(alg)
        out = []
        for j in range(1, alg.rank + 1):
            block = [row[:j] for row in E[:j]]
            out.append(det_poly(block))
    alg._cache["minors"] = out
    return out


def delta_j(x: Element, j: int) -> complex | float:
    """Leading principal minor of order j, 1 <= j <= rank."""
    alg = x.alg
    if not 1 <= j <= alg.rank:
        raise ValueError("minor order out of range")
    v = eja.to_zchart(x)
    if alg.siegel_n:
        v = np.concatenate([v, np.zeros(alg.siegel_n, dtype=complex)])
    val = minor_polynomials(alg)[j - 1].eval(v)
    return float(val.real) if x.is_real else complex(val)


def _reverse_element(x: Element) -> Element:
    """Conjugate by the frame-reversing permutation."""
    alg = x.alg
    if alg.family == "spin":
        c = x.coords.copy()
        c[[0, 1]] = c[[1, 0]]
        return Element(alg, c)
    M = eja.embed_matrix(x)
    b = eja._block_size(alg)
    perm = (b * np.arange(alg.size)[::-1, None] + np.arange(b)).ravel()
    return eja.unembed_matrix(alg, M[np.ix_(perm, perm)])


def delta_j_star(x: Element, j: int) -> complex | float:
    """Minor of order j with respect to the reversed frame e_r, ..., e_1."""
    return delta_j(_reverse_element(x), j)


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------

def min_eigenvalue(x: Element) -> float:
    alg = x.alg
    if not x.is_real:
        raise ValueError("cone tests expect real elements")
    if alg.family == "spin":
        c = x.coords
        rho = np.sqrt(((c[0] - c[1]) / 2.0) ** 2 + np.dot(c[2:], c[2:]))
        return float((c[0] + c[1]) / 2.0 - rho)
    M = eja.embed_matrix(x)
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])


def in_cone(x: Element, tol: float = CONE_TOL) -> bool:
    """Membership in the open symmetric cone (min eigenvalue above tol)."""
    return min_eigenvalue(x) > tol


def delta_power(x: Element, s: Sequence[float]) -> float:
    """Delta^s(x) for a real cone point and real exponent vector s."""
    alg = x.alg
    s = np.asarray(s, dtype=float)
    if s.shape != (alg.rank,):
        raise ValueError("exponent vector must have length rank")
    if not in_cone(x):
        raise ValueError("delta_power needs a point of the open cone")
    exps = np.append(s, 0.0)
    out = 1.0
    for j in range(1, alg.rank + 1):
        e_j = exps[j - 1] - exps[j]
        if e_j != 0.0:
            out *= float(delta_j(x, j)) ** e_j
    return out


# ---------------------------------------------------------------------------
# branch-safe logs of minors on the right tube
# ---------------------------------------------------------------------------

def _log_rhp_det(B: np.ndarray) -> complex:
    """log det of a matrix with positive-definite hermitian part.

    Continuous on that (convex) set and real for hermitian positive B:
    log det X + sum_k Log(1 + i nu_k) with X the hermitian part and nu the
    eigenvalues of X^{-1/2} Y X^{-1/2}.
    """
    X = (B + B.conj().T) / 2.0
    Y = (B - B.conj().T) / 2.0j
    lx, U = np.linalg.eigh(X)
    if lx[0] <= 0:
        raise ValueError("hermitian part is not positive definite")
    Xm = U @ np.diag(1.0 / np.sqrt(lx)) @ U.conj().T
    nu = np.linalg.eigvalsh(Xm @ Y @ Xm)
    return float(np.sum(np.log(lx))) + complex(np.sum(np.log1p(1j * nu)))


def log_delta_j(x: Element, j: int) -> complex:
    """Continuous-branch log Delta_j on {Re x in the open cone}."""
    alg = x.alg
    xr = x.real_part()
    if not in_cone(xr, tol=0.0):
        return _log_delta_j_path(x, j)
    if j <= 2:
        # Delta_j(x + iy) = Delta_j(x) prod_k (1 + i nu_k) with j real
        # factors, each argument in (-pi/2, pi/2): principal log is the branch
        return complex(np.log(complex(delta_j(x.as_complex(), j))))
    # the complex picture repeats every eigenvalue once per block row
    b = eja._block_size(alg)
    L = _log_rhp_det(eja.embed_matrix(x.as_complex())[: b * j, : b * j])
    return complex(L / b)


def _log_delta_j_path(x: Element, j: int) -> complex:
    """Adaptive continuation of log Delta_j from the anchor x + e.

    Needs Re x in the closed cone and Delta_j(x) != 0; the straight path
    x + (1 - t) e keeps the real part in the open cone until the endpoint.
    """
    alg = x.alg
    xr = x.real_part()
    if min_eigenvalue(xr) < -1e-9 * max(1.0, xr.norm()):
        raise ValueError("argument is outside the closed right tube")
    e = eja.identity(alg)
    anchor = x.as_complex() + e.as_complex()
    L = log_delta_j(anchor, j)
    prev = complex(delta_j(anchor, j))
    target = complex(delta_j(x.as_complex(), j))
    if target == 0 or not np.isfinite(abs(target)):
        raise ValueError("minor vanishes at the path endpoint")
    t, step, steps = 0.0, 0.25, 0
    while t < 1.0:
        if steps > _PATH_MAX_STEPS:
            raise RuntimeError("branch continuation did not converge")
        steps += 1
        tn = min(1.0, t + step)
        pt = x.as_complex() + (1.0 - tn) * e.as_complex()
        cur = complex(delta_j(pt, j))
        if cur == 0 or abs(cur / prev - 1.0) > 0.5:
            step /= 2.0
            if step < 1e-14:
                raise RuntimeError("branch continuation stalled")
            continue
        L += np.log(cur / prev)
        prev = cur
        t = tn
        step = min(step * 1.9, 0.25)
    return L


def delta_power_complex(x: Element, s: Sequence[float]) -> complex:
    """Delta^s on the right tube, continuous branch, real on the cone."""
    alg = x.alg
    s = np.asarray(s, dtype=float)
    if s.shape != (alg.rank,):
        raise ValueError("exponent vector must have length rank")
    exps = np.append(s, 0.0)
    total = 0.0 + 0.0j
    for j in range(1, alg.rank + 1):
        e_j = exps[j - 1] - exps[j]
        if e_j != 0.0:
            total += e_j * log_delta_j(x.as_complex(), j)
    return complex(np.exp(total))


# ---------------------------------------------------------------------------
# triangular group
# ---------------------------------------------------------------------------

class TriangularElement:
    """Element of the solvable group T_-: lower triangular, positive diagonal.

    Matrix families store the embedded lower-triangular factor; the spin
    factor stores (t11, v, t22) acting through the half-matrix product
    t . x = (t x) t*.
    """

    __slots__ = ("alg", "mat", "t11", "t22", "v")

    def __init__(self, alg: AlgebraDescriptor, mat=None, t11=None, v=None, t22=None):
        self.alg = alg
        if alg.family == "spin":
            self.mat = None
            self.t11 = float(t11)
            self.t22 = float(t22)
            self.v = np.asarray(v, dtype=float)
            if self.t11 <= 0 or self.t22 <= 0:
                raise ValueError("diagonal of a triangular element must be positive")
            if self.v.shape != (alg.dim_m - 2,):
                raise ValueError("spin triangular element has a vector of length m - 2")
        else:
            self.mat = np.asarray(mat)
            if not np.allclose(self.mat, np.tril(self.mat)):
                raise ValueError("matrix is not lower triangular")
            if np.any(np.diag(self.mat).real <= 0) or np.any(np.abs(np.diag(self.mat).imag) > 1e-12):
                raise ValueError("diagonal of a triangular element must be positive")

    def diagonal(self) -> np.ndarray:
        """The rank positive diagonal parameters t_11, ..., t_rr."""
        if self.alg.family == "spin":
            return np.array([self.t11, self.t22])
        return np.diag(self.mat).real[0::eja._block_size(self.alg)]

    def compose(self, other: "TriangularElement") -> "TriangularElement":
        """Group law: (self compose other) . x = self . (other . x)."""
        if self.alg != other.alg:
            raise ValueError("mismatched algebras")
        if self.alg.family == "spin":
            a, b = self.t11, self.t22
            a2, b2 = other.t11, other.t22
            return TriangularElement(
                self.alg, t11=a * a2, t22=b * b2,
                v=a2 * self.v + b * other.v,
            )
        return TriangularElement(self.alg, mat=self.mat @ other.mat)

    def inverse(self) -> "TriangularElement":
        if self.alg.family == "spin":
            return TriangularElement(
                self.alg, t11=1.0 / self.t11, t22=1.0 / self.t22,
                v=-self.v / (self.t11 * self.t22),
            )
        return TriangularElement(self.alg, mat=np.linalg.inv(self.mat))


def identity_triangular(alg: AlgebraDescriptor) -> TriangularElement:
    if alg.family == "spin":
        return TriangularElement(alg, t11=1.0, v=np.zeros(alg.dim_m - 2), t22=1.0)
    return TriangularElement(alg, mat=np.eye(eja._block_size(alg) * alg.size))


def t_action(t: TriangularElement, x: Element) -> Element:
    """x -> t x t* (complexified when x has complex coordinates)."""
    alg = x.alg
    if alg != t.alg:
        raise ValueError("mismatched algebras")
    if alg.family == "spin":
        cx = x.coords
        xx, yy, zz = cx[0], cx[1], cx[2:]
        t11, t22, v = t.t11, t.t22, t.v
        nx = t11 ** 2 * xx
        nz = t11 * (xx * v + t22 * zz)
        ny = xx * np.dot(v, v) + 2.0 * t22 * np.dot(v, zz) + t22 ** 2 * yy
        out = np.concatenate(([nx, ny], nz))
        return Element(alg, out)
    M = eja.embed_matrix(x)
    return eja.unembed_matrix(alg, t.mat @ M @ t.mat.conj().T)


def t_action_halfspace(t: TriangularElement, zeta: np.ndarray) -> np.ndarray:
    """Action on the half-space block: zeta -> t zeta."""
    if t.alg.family != "herm_complex":
        raise ValueError("only herm_complex carries a half-space block")
    return t.mat @ np.asarray(zeta, dtype=complex)


def cholesky_t(y: Element) -> TriangularElement:
    """The unique t in T_- with t . e = y, for y in the open cone."""
    alg = y.alg
    if not in_cone(y):
        raise ValueError("cholesky_t needs a point of the open cone")
    if alg.family == "spin":
        c = y.coords
        t11 = np.sqrt(c[0])
        v = c[2:] / t11
        t22sq = c[1] - np.dot(v, v)
        if t22sq <= 0:
            raise ValueError("cholesky_t needs a point of the open cone")
        return TriangularElement(alg, t11=t11, v=v, t22=np.sqrt(t22sq))
    M = eja.embed_matrix(y)
    M = (M + M.conj().T) / 2.0
    L = np.linalg.cholesky(M)
    if alg.family == "sym_real":
        L = L.real
    return TriangularElement(alg, mat=L)


def character(t: TriangularElement, s: Sequence[float]) -> float:
    """Delta^s(t . e) = prod_j t_jj^(2 s_j)."""
    d = t.diagonal()
    s = np.asarray(s, dtype=float)
    if s.shape != d.shape:
        raise ValueError("exponent vector must have length rank")
    return float(np.prod(d ** (2.0 * s)))


def t_jacobian(t: TriangularElement) -> float:
    """|det| of x -> t . x on F; equals Delta(t . e)^(dim_m / rank)."""
    alg = t.alg
    e = eja.identity(alg)
    cols = []
    for k in range(alg.dim_m):
        v = np.zeros(alg.dim_m)
        v[k] = 1.0
        cols.append(t_action(t, Element(alg, v)).coords)
    J = np.column_stack(cols)
    return float(abs(np.linalg.det(J)))
