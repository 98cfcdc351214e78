"""Euclidean Jordan algebras of the four classical matrix-type families.

Families
--------
sym_real(r)          real symmetric r x r matrices
herm_complex(p, q)   complex hermitian p x p (q > p adds a rectangular
                     half-space block, so the ambient triple system is
                     M_{p,q}(C); the ball is p = 1)
herm_quaternion(p)   quaternionic hermitian p x p, realized through the
                     standard 2x2 complex embedding of H
spin_factor(m)       R x R x R^{m-2} with the rank-2 product
                     (x,y,z)(x',y',z') = (xx'+<z,z'>, yy'+<z,z'>,
                                          ((x+y)z' + (x'+y')z)/2)

Every element carries coordinates in a fixed "real chart" of the real form F:
packed upper-triangle coordinates with sqrt(2)-scaled off-diagonal entries for
the matrix families (so the coordinate dot product is the normalized trace
form with primitive idempotents of norm one), and the natural (x, y, z...)
coordinates for the spin factor (where the trace form carries weight 2 on the
z block). The complexification Z_1 = F + iF uses the same chart with complex
coefficients; the unitary "z-chart" used by the polynomial machinery is
exposed through to_zchart / from_zchart.

The unit table _UNITS is the one definition of each matrix family's
coordinates: the block units 1 (sym_real), 1, i (herm_complex) and the
quaternion units 1, i, j, k as 2 x 2 complex blocks (herm_quaternion). A
diagonal block carries one coordinate along the first unit, a block above the
diagonal one coordinate per unit. The coordinate matrices, the four chart
maps and the triangular coordinates of domains are all built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

# Eigenvalue clustering / idempotent checks
IDEMPOTENT_TOL = 1e-10
PEIRCE_TOL = 1e-8

# 2x2 complex images of the quaternion units 1, i, j, k
_QUNITS = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
    np.array([[0, 1j], [1j, 0]], dtype=complex),
    np.array([[1j, 0], [0, -1j]], dtype=complex),
)

# b x b block units of each matrix family, the first the identity (see the
# module docstring). Only sym_real's are real, so its triangular factors stay
# real.
_UNITS = {
    "sym_real": (np.ones((1, 1)),),
    "herm_complex": (np.ones((1, 1)), np.full((1, 1), 1j)),
    "herm_quaternion": _QUNITS,
}

_ISQ2 = np.sqrt(0.5)  # 1/sqrt(2) correctly rounded; 1 / sqrt(2.0) is an ulp low


def _block_size(alg: "AlgebraDescriptor") -> int:
    """Side of a matrix family's block units: 2 for quaternions, else 1."""
    return len(_UNITS[alg.family][0])


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Structure constants and chart bookkeeping for one algebra."""

    family: str
    rank: int
    peirce_a: int
    dim_m: int       # real dimension of F (= complex dimension of Z_1)
    siegel_n: int    # complex dimension of the half-space block Z_{1/2}
    genus: int
    size: int        # matrix size (r or p), or ambient dim m for spin
    cols: int        # q for herm_complex, otherwise equals size
    is_tube: bool
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @property
    def trace_ratio(self) -> float:
        """tr D(x, y) over Z equals trace_ratio * tau(x y)."""
        return self.genus / 2.0

    @property
    def zdim(self) -> int:
        """Complex dimension of the ambient triple system Z."""
        return self.dim_m + self.siegel_n

    def __str__(self):
        if self.family == "herm_complex" and self.cols != self.size:
            return f"herm_complex({self.size},q={self.cols})"
        return f"{self.family}({self.size})"


def sym_real(r: int) -> AlgebraDescriptor:
    if r < 1:
        raise ValueError("rank must be positive")
    m = r * (r + 1) // 2
    return AlgebraDescriptor(
        family="sym_real", rank=r, peirce_a=0 if r == 1 else 1, dim_m=m,
        siegel_n=0, genus=r + 1, size=r, cols=r, is_tube=True,
    )


def herm_complex(p: int, q: int | None = None) -> AlgebraDescriptor:
    if p < 1:
        raise ValueError("rank must be positive")
    q = p if q is None else q
    if q < p:
        raise ValueError("need q >= p")
    return AlgebraDescriptor(
        family="herm_complex", rank=p, peirce_a=0 if p == 1 else 2, dim_m=p * p,
        siegel_n=p * (q - p), genus=p + q, size=p, cols=q, is_tube=(p == q),
    )


def herm_quaternion(p: int) -> AlgebraDescriptor:
    # covers the even skew-symmetric family; odd sizes are out of scope
    if p < 1:
        raise ValueError("rank must be positive")
    m = p * (2 * p - 1)
    return AlgebraDescriptor(
        family="herm_quaternion", rank=p, peirce_a=0 if p == 1 else 4, dim_m=m,
        siegel_n=0, genus=2 * (2 * p - 1), size=p, cols=p, is_tube=True,
    )


def spin_factor(m: int) -> AlgebraDescriptor:
    if m < 3:
        raise ValueError("spin factor needs ambient dimension >= 3")
    return AlgebraDescriptor(
        family="spin", rank=2, peirce_a=m - 2, dim_m=m,
        siegel_n=0, genus=m, size=m, cols=m, is_tube=True,
    )


def make_algebra(family: str, size: int, q: int | None = None) -> AlgebraDescriptor:
    """Descriptor factory keyed by family name.

    size is the rank for the matrix families and the ambient real dimension
    for the spin factor.
    """
    table = {
        "sym_real": lambda: sym_real(size),
        "herm_complex": lambda: herm_complex(size, q),
        "herm_quaternion": lambda: herm_quaternion(size),
        "spin": lambda: spin_factor(size),
    }
    if family not in table:
        raise ValueError(f"unknown family {family!r}")
    if q is not None and family != "herm_complex":
        raise ValueError("q is only meaningful for herm_complex")
    return table[family]()


ALL_FAMILY_EXAMPLES = (
    lambda: sym_real(1),
    lambda: sym_real(2),
    lambda: sym_real(3),
    lambda: herm_complex(2),
    lambda: herm_complex(2, 3),
    lambda: herm_quaternion(2),
    lambda: spin_factor(4),
    lambda: spin_factor(5),
)


class Element:
    """Element of F (real coords) or of Z_1 = F + iF (complex coords)."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg: AlgebraDescriptor, coords):
        self.alg = alg
        coords = np.asarray(coords)
        if coords.shape != (alg.dim_m,):
            raise ValueError(f"expected {alg.dim_m} coordinates, got {coords.shape}")
        if np.iscomplexobj(coords):
            self.coords = coords.astype(complex)
        else:
            self.coords = coords.astype(float)
        if not np.all(np.isfinite(self.coords.view(float))):
            raise ValueError("non-finite coordinates")

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.coords)

    def as_complex(self) -> "Element":
        return Element(self.alg, self.coords.astype(complex))

    def real_part(self) -> "Element":
        return Element(self.alg, np.real(self.coords).astype(float))

    def imag_part(self) -> "Element":
        return Element(self.alg, np.imag(self.coords).astype(float))

    def conj(self) -> "Element":
        """Conjugation of Z_1 fixing the real form F."""
        return Element(self.alg, np.conj(self.coords))

    def __add__(self, other):
        _check_same(self, other)
        return Element(self.alg, self.coords + other.coords)

    def __sub__(self, other):
        _check_same(self, other)
        return Element(self.alg, self.coords - other.coords)

    def __mul__(self, scalar):
        return Element(self.alg, self.coords * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Element(self.alg, -self.coords)

    def norm(self) -> float:
        """Norm in the trace form (hermitian pairing for complex coords)."""
        w = _trace_weights(self.alg)
        return float(np.sqrt(np.sum(w * np.abs(self.coords) ** 2)))

    def __repr__(self):
        return f"Element({self.alg}, {np.array2string(self.coords, precision=4)})"


def _check_same(x: Element, y: Element):
    if x.alg is not y.alg and x.alg != y.alg:
        raise ValueError("elements from different algebras")


def _trace_weights(alg: AlgebraDescriptor) -> np.ndarray:
    if "trace_w" not in alg._cache:
        if alg.family == "spin":
            w = np.ones(alg.dim_m)
            w[2:] = 2.0
        else:
            w = np.ones(alg.dim_m)
        alg._cache["trace_w"] = w
    return alg._cache["trace_w"]


# ---------------------------------------------------------------------------
# the unit table: packed chart <-> concrete matrices and the z-chart
# ---------------------------------------------------------------------------

def _block(b: int, i: int, j: int) -> Tuple[slice, slice]:
    """Index of block (i, j) in a matrix of b x b blocks."""
    return slice(b * i, b * i + b), slice(b * j, b * j + b)


def _coord_matrices(alg: AlgebraDescriptor) -> np.ndarray:
    """Stack of E_k with embed_matrix(x) = sum_k x_k E_k, in chart order.

    Block row i, then block column j >= i, then unit: a diagonal block
    carries the first unit, an off-diagonal one unit / sqrt(2) above the
    diagonal and its adjoint below. Every E_k has tr(E_k^2) = b, the block
    size.
    """
    units = _UNITS[alg.family]
    b = _block_size(alg)
    n = b * alg.size
    out = []
    for i in range(alg.size):
        for j in range(i, alg.size):
            for u in units[:1] if i == j else units:
                E = np.zeros((n, n), dtype=complex)
                if i == j:
                    E[_block(b, i, i)] = u
                else:
                    E[_block(b, i, j)] = u * _ISQ2
                    E[_block(b, j, i)] = u.conj().T * _ISQ2
                out.append(E)
    return np.array(out)


def _chart(alg: AlgebraDescriptor) -> dict:
    """Cached matrices of the five chart maps, each applied as coords @ M so
    that a stack of points goes through unchanged.

    'to_z', 'from_z' and 'conj' (to_zchart(x.conj()) = conj(to_zchart(x))
    @ conj, a signed permutation rounded to exact) for every family; 'embed',
    'unembed' and the matrix size 'n' for the matrix families only. Beside
    them, read-only, the identity's coordinates 'e' and its z-chart row 'ez'.
    """
    if "chart" in alg._cache:
        return alg._cache["chart"]
    out = {}
    if alg.family == "spin":
        C = np.diag(np.sqrt(_trace_weights(alg))).astype(complex)
    else:
        E = _coord_matrices(alg)
        out["n"] = n = E.shape[1]
        nn = n * n
        out["embed"] = E.reshape(alg.dim_m, nn)
        # the trace pairing tr(E_k M) / tr(E_k^2)
        out["unembed"] = (E.transpose(0, 2, 1).reshape(alg.dim_m, nn).T
                          / _block_size(alg))
        if alg.family == "sym_real":
            C = np.eye(alg.dim_m, dtype=complex)
        elif alg.family == "herm_complex":
            C = out["embed"].T
        else:
            # upper entries of the skew picture J H
            iu = np.triu_indices(n, k=1)
            C = (_quat_J(alg.size) @ E)[:, iu[0], iu[1]].T
    # the chart is an isometry for the trace form: C* C = diag(weights)
    out["to_z"] = C.T
    out["from_z"] = (C.conj().T / _trace_weights(alg)[:, None]).T
    out["conj"] = np.rint((np.conj(out["from_z"]) @ out["to_z"]).real)
    e = (np.r_[1.0, 1.0, np.zeros(alg.dim_m - 2)] if alg.family == "spin" else
         (np.eye(_block_size(alg) * alg.size).reshape(-1) @ out["unembed"]).real)
    out["e"], out["ez"] = e, e @ out["to_z"]
    e.flags.writeable = out["ez"].flags.writeable = False
    alg._cache["chart"] = out
    return out


def _matrix_chart(alg: AlgebraDescriptor) -> dict:
    chart = _chart(alg)
    if "embed" not in chart:
        raise ValueError("spin factor has no matrix embedding")
    return chart


def embed_matrix(x: Element) -> np.ndarray:
    """Concrete matrix of an element (hermitian embedding for quaternions).

    Complex coordinates give the complexified matrix so that the map is
    C-linear; spin elements have no matrix picture and are rejected.
    """
    chart = _matrix_chart(x.alg)
    return (x.coords @ chart["embed"]).reshape(chart["n"], chart["n"])


def unembed_matrix(alg: AlgebraDescriptor, M: np.ndarray) -> Element:
    """Inverse of embed_matrix (input assumed to lie in the embedded image)."""
    U = _matrix_chart(alg)["unembed"]
    return Element(alg, _realify(np.asarray(M).reshape(-1) @ U))


def _realify(c: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Strip a numerically-zero imaginary part, else keep complex."""
    im = np.max(np.abs(c.imag)) if c.size else 0.0
    scale = max(1.0, np.max(np.abs(c))) if c.size else 1.0
    if im <= tol * scale:
        return c.real.copy()
    return c


def skew_embed(x: Element) -> np.ndarray:
    """Skew-symmetric complex picture of a quaternionic element (J times the
    hermitian embedding, J = diag(J_2, ..., J_2))."""
    if x.alg.family != "herm_quaternion":
        raise ValueError("skew embedding is for the quaternionic family")
    H = embed_matrix(x)
    J = _quat_J(x.alg.size)
    return J @ H


def _quat_J(p: int) -> np.ndarray:
    J = np.zeros((2 * p, 2 * p), dtype=complex)
    for i in range(p):
        J[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = _QUNITS[1]
    return J


def to_zchart(x: Element) -> np.ndarray:
    """Complex coordinate vector of x in the unitary chart of Z_1."""
    return x.coords @ _chart(x.alg)["to_z"]


def from_zchart(alg: AlgebraDescriptor, v: np.ndarray) -> Element:
    v = np.asarray(v, dtype=complex)
    if v.shape != (alg.dim_m,):
        raise ValueError("z-chart vector has wrong length")
    return Element(alg, _realify(v @ _chart(alg)["from_z"]))


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------

def identity(alg: AlgebraDescriptor) -> Element:
    return Element(alg, _chart(alg)["e"])


def jordan_product(x: Element, y: Element) -> Element:
    _check_same(x, y)
    alg = x.alg
    if alg.family == "spin":
        cx, cy = x.coords, y.coords
        zdots = np.dot(cx[2:], cy[2:])
        out = np.empty(alg.dim_m, dtype=np.result_type(cx, cy))
        out[0] = cx[0] * cy[0] + zdots
        out[1] = cx[1] * cy[1] + zdots
        out[2:] = ((cx[0] + cx[1]) * cy[2:] + (cy[0] + cy[1]) * cx[2:]) / 2.0
        return Element(alg, out)
    X, Y = embed_matrix(x), embed_matrix(y)
    return unembed_matrix(alg, (X @ Y + Y @ X) / 2.0)


def trace_inner(x: Element, y: Element) -> complex | float:
    """Bilinear trace form tau(x y) in the package normalization."""
    _check_same(x, y)
    w = _trace_weights(x.alg)
    val = np.sum(w * x.coords * y.coords)
    return complex(val) if np.iscomplexobj(val) else float(val)


def jordan_trace(x: Element) -> complex | float:
    return trace_inner(x, identity(x.alg))


def determinant(x: Element) -> complex | float:
    """Jordan determinant (product of the rank eigenvalues)."""
    alg = x.alg
    if alg.family == "spin":
        c = x.coords
        val = c[0] * c[1] - np.dot(c[2:], c[2:])
    elif alg.family == "herm_quaternion":
        val = _pfaffian_numeric(skew_embed(x))
    else:
        val = np.linalg.det(embed_matrix(x))
    if not np.iscomplexobj(x.coords):
        return float(np.real(val))
    return complex(val)


def _pfaffian_numeric(S: np.ndarray) -> complex:
    n = S.shape[0]
    if n == 2:
        return S[0, 1]
    total = 0.0 + 0.0j
    for j in range(1, n):
        if S[0, j] == 0:
            continue
        keep = [k for k in range(1, n) if k != j]
        minor = S[np.ix_(keep, keep)]
        sgn = 1.0 if j % 2 == 1 else -1.0
        total += sgn * S[0, j] * _pfaffian_numeric(minor)
    return total


def inverse(x: Element) -> Element:
    """Jordan inverse; raises on singular elements."""
    alg = x.alg
    if alg.family == "spin":
        d = determinant(x)
        if abs(d) < 1e-300:
            raise np.linalg.LinAlgError("singular spin element")
        c = x.coords
        adj = np.concatenate(([c[1], c[0]], -c[2:]))
        return Element(alg, adj / d)
    M = embed_matrix(x)
    return unembed_matrix(alg, np.linalg.inv(M))


def triple_product(x: Element, y: Element, z: Element) -> Element:
    """Jordan triple product {x, y, z} on Z_1, conjugate-linear in y."""
    _check_same(x, y)
    _check_same(y, z)
    alg = x.alg
    if alg.family == "spin":
        yb = y.conj()
        return (
            jordan_product(x, jordan_product(yb, z))
            - jordan_product(jordan_product(x, z), yb)
            + jordan_product(z, jordan_product(yb, x))
        )
    X, Z = embed_matrix(x), embed_matrix(z)
    # the triple involution y -> y* is the conjugate transpose of the
    # embedding, which coincides with the chart conjugation fixing F
    Ys = embed_matrix(y.conj())
    return unembed_matrix(alg, (X @ Ys @ Z + Z @ Ys @ X) / 2.0)


def full_matrix(x: Element, zeta: np.ndarray | None = None) -> np.ndarray:
    """Concrete p x q picture (z1 | zeta) of a point of the full Z.

    Only herm_complex carries a nonzero half-space block; for every other
    family this is just embed_matrix.
    """
    alg = x.alg
    M = embed_matrix(x)
    if alg.siegel_n == 0:
        if zeta is not None and np.asarray(zeta).size:
            raise ValueError("tube-type algebra has no half-space block")
        return M
    p, q = alg.size, alg.cols
    out = np.zeros((p, q), dtype=complex)
    out[:, :p] = M
    if zeta is not None:
        zeta = np.asarray(zeta, dtype=complex).reshape(p, q - p)
        out[:, p:] = zeta
    return out


def triple_product_full(alg: AlgebraDescriptor, X: np.ndarray, Y: np.ndarray,
                        Z: np.ndarray) -> np.ndarray:
    """{x, y, z} = (x y* z + z y* x)/2 on the concrete matrix picture of Z."""
    if alg.family == "spin":
        raise ValueError("use triple_product for spin elements")
    # conjugate transpose is a no-op transpose for complex symmetric matrices,
    # so one involution covers all three matrix families
    Ys = Y.conj().T
    return (X @ Ys @ Z + Z @ Ys @ X) / 2.0


def spectral_decomposition(x: Element) -> Tuple[np.ndarray, List[Element]]:
    """Eigenvalues (descending) and the corresponding frame idempotents.

    Degenerate eigenvalues still return rank-many primitive idempotents; the
    split inside a degenerate cluster is an arbitrary deterministic choice.
    """
    alg = x.alg
    if not x.is_real:
        raise ValueError("spectral decomposition expects a real element")
    if alg.family == "spin":
        return _spin_spectral(x)
    M = embed_matrix(x)
    M = (M + M.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(M)
    order = np.argsort(-evals)
    evals, vecs = evals[order], vecs[:, order]
    # each eigenvalue repeats once per block row (quaternionic pairs); fuse them
    b = _block_size(alg)
    idems = []
    for k in range(alg.rank):
        V = vecs[:, b * k: b * k + b]
        idems.append(unembed_matrix(alg, V @ V.conj().T))
    return evals[0::b].copy(), idems


def _spin_spectral(x: Element) -> Tuple[np.ndarray, List[Element]]:
    alg = x.alg
    c = x.coords
    half_diff = (c[0] - c[1]) / 2.0
    rho = np.sqrt(half_diff ** 2 + np.dot(c[2:], c[2:]))
    mean = (c[0] + c[1]) / 2.0
    lam = np.array([mean + rho, mean - rho])
    if rho < 1e-14 * max(1.0, abs(mean)):
        return lam, list(standard_frame(alg))
    w = np.concatenate(([half_diff, -half_diff], c[2:])) / (2.0 * rho)
    e = identity(alg)
    cplus = Element(alg, 0.5 * e.coords + w)
    cminus = Element(alg, 0.5 * e.coords - w)
    return lam, [cplus, cminus]


def standard_frame(alg: AlgebraDescriptor) -> List[Element]:
    """The reference Jordan frame e_1, ..., e_rank."""
    if alg.family == "spin":
        c1 = np.zeros(alg.dim_m)
        c1[0] = 1.0
        c2 = np.zeros(alg.dim_m)
        c2[1] = 1.0
        return [Element(alg, c1), Element(alg, c2)]
    b = _block_size(alg)
    out = []
    for i in range(alg.rank):
        M = np.zeros((b * alg.size, b * alg.size), dtype=complex)
        M[_block(b, i, i)] = np.eye(b)
        out.append(unembed_matrix(alg, M))
    return out


def is_idempotent(c: Element, tol: float = IDEMPOTENT_TOL) -> bool:
    d = jordan_product(c, c) - c
    return d.norm() <= tol * max(1.0, c.norm())


def peirce_projectors(c: Element) -> dict:
    """Spectral projectors of D(c, c) on Z_1 for eigenvalues 1, 1/2, 0.

    Returns {'1': P1, 'half': Ph, '0': P0} as zdim x zdim complex matrices in
    the z-chart, plus the three multiplicities under 'dims'.
    """
    alg = c.alg
    if not is_idempotent(c):
        raise ValueError("peirce decomposition needs an idempotent")
    dim = alg.dim_m
    D = np.zeros((dim, dim), dtype=complex)
    cc = c.as_complex()
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        basis_el = from_zchart(alg, v)
        w = triple_product(cc, cc, basis_el.as_complex())
        D[:, k] = to_zchart(w)
    D = (D + D.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(D)
    groups = {"0": [], "half": [], "1": []}
    for k, lam in enumerate(evals):
        if abs(lam) < PEIRCE_TOL:
            groups["0"].append(k)
        elif abs(lam - 0.5) < PEIRCE_TOL:
            groups["half"].append(k)
        elif abs(lam - 1.0) < PEIRCE_TOL:
            groups["1"].append(k)
        else:
            raise ValueError(f"unexpected D(c,c) eigenvalue {lam:.6g}")
    out = {}
    dims = {}
    for key, idx in groups.items():
        V = vecs[:, idx]
        out[key] = V @ V.conj().T
        dims[key] = len(idx)
    out["dims"] = dims
    return out
