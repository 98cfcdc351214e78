"""Bounded and Siegel realizations: membership, Cayley transform, kernels,
group actions, the invariant measure, Haar draws of the isotropy group K,
and samplers.

Points of the bounded domain pair a complex algebra element z1 with a
rectangular block zeta (only herm_complex(p, q>p) has one). Siegel points
pair zeta with z in the complexified algebra; membership means
Im z - Phi(zeta, zeta) lies in the open cone. A point is its z-chart row
(the z-chart of z1 or z, then zeta): it stores the row and reads z1, z and
zeta from it, and bounded_from_vector and siegel_from_vector wrap a row.

Kernels carry no normalizing constants: the Siegel kernel is the plain
Delta^(-lambda) of the polarized argument, and the bounded kernel is
h(z, w)^(-lambda), so K(z, 0) = 1. One routine per picture takes all pairs
of two stacks of rows (kernel_bounded and kernel_siegel are its 1 x 1 case):
log_h_pairs sums log(1 - mu) over the eigenvalues mu of a pencil in the unit
disc (Z W*, or a 2 x 2 closed form on spin), the continuous branch, and
siegel_log_delta_pairs shares inverse_cayley_rows' right-tube branch rule.

Points travel as stacks of chart rows (as_vector per row):
sample_weighted_bounded draws exactly from h(z, z)^(lambda - g) dm over its
mass bergman_constant, in polar coordinates (at t = 1, the Shilov boundary
K.e); sphere_rows draws directions uniform on a sphere; cayley_rows carries
such rows to the Siegel side with log |Delta(e - z)|, which gives the real
Jacobian of the map, siegel_log_delta_rows gives log Delta of their defect,
and inverse_cayley_rows maps Siegel rows back on every family, the
half-space block included. cayley and inverse_cayley are their one-row
calls, and affine_chart writes an affine map as (A, b) on chart rows.
sample_siegel, the one Siegel sampler, is the Cayley image of the uniform
draws on D. One routine, _frames, draws the Haar unitary frames behind the
polar draws, the stacks of K chart matrices of haar_K and the unitary part
of mobius_sample. _matrix_rows, the one map from rows to matrix pictures,
takes its products row by row, so a row has the same bits alone, in any
stack and as its point. spectral_norm and in_bounded_domain take a point, a
row or a stack of rows, so the Gram search builds no point: sample_bounded
returns the row its box rejection accepts, and a cluster's rows are tested
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cones, eja
from .eja import AlgebraDescriptor, Element

BOUNDARY_TOL = 1e-12


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def _halfspace_block(alg: AlgebraDescriptor, zeta) -> Optional[np.ndarray]:
    """zeta as the (p, q - p) half-space block of herm_complex(p, q > p),
    zero when not given; None for every other family, which has no block."""
    if not alg.siegel_n:
        if zeta is not None and np.asarray(zeta).size:
            raise ValueError("tube-type domains carry no half-space block")
        return None
    want = (alg.size, alg.cols - alg.size)
    if zeta is None:
        return np.zeros(want, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != want:
        raise ValueError("half-space block has the wrong shape")
    return zeta


class _RowPoint:
    """A point stored as its z-chart row: the z-chart of its Z_1 element,
    then the (p, q - p) half-space block of herm_complex(p, q > p). The row
    is read-only, as_vector returns it, and the element and the block are
    read from it."""

    __slots__ = ("alg", "row")

    def __init__(self, alg: AlgebraDescriptor, x: Element, zeta=None):
        if x.alg != alg:
            raise ValueError("element does not belong to the stated algebra")
        zeta = _halfspace_block(alg, zeta)
        v = eja.to_zchart(x.as_complex())
        _keep(self, alg, v if zeta is None else np.concatenate([v, zeta.ravel()]))

    def _element(self) -> Element:
        m = self.alg.dim_m
        return Element(self.alg, self.row[:m] @ eja._chart(self.alg)["from_z"])

    @property
    def zeta(self) -> Optional[np.ndarray]:
        """The half-space block, None on the families without one."""
        alg = self.alg
        return self.row[alg.dim_m:].reshape(alg.size, -1) if alg.siegel_n else None

    def as_vector(self) -> np.ndarray:
        return self.row


def _keep(p: _RowPoint, alg: AlgebraDescriptor, v: np.ndarray) -> _RowPoint:
    v.flags.writeable = False
    p.alg, p.row = alg, v
    return p


class BoundedPoint(_RowPoint):
    """(z1, zeta) in the ambient space of the bounded domain."""

    __slots__ = ()
    z1 = property(_RowPoint._element)

    def full_matrix(self) -> np.ndarray:
        """Embedded picture; for herm_complex the full p x q matrix."""
        return _matrix_rows(self.alg, self.row)


class SiegelPoint(_RowPoint):
    """(zeta, z) with z in the complexified algebra."""

    __slots__ = ()
    z = property(_RowPoint._element)

    def __init__(self, alg: AlgebraDescriptor, zeta, z: Element):
        super().__init__(alg, z, zeta)


def _of_row(cls, alg: AlgebraDescriptor, v) -> _RowPoint:
    """A point of class cls on a copy of the chart row v; no element is built."""
    v = np.array(v, dtype=complex)
    if v.shape != (alg.zdim,) or not np.isfinite(v).all():
        raise ValueError(f"expected a finite chart row of length {alg.zdim}")
    return _keep(object.__new__(cls), alg, v)


def bounded_from_vector(alg: AlgebraDescriptor, v: np.ndarray) -> BoundedPoint:
    return _of_row(BoundedPoint, alg, v)


def siegel_from_vector(alg: AlgebraDescriptor, v: np.ndarray) -> SiegelPoint:
    """Inverse of SiegelPoint.as_vector."""
    return _of_row(SiegelPoint, alg, v)


def siegel_base_point(alg: AlgebraDescriptor) -> SiegelPoint:
    return SiegelPoint(alg, None, 1j * eja.identity(alg))


# ---------------------------------------------------------------------------
# spectral norm and membership
# ---------------------------------------------------------------------------

def spectral_norm(p, alg: Optional[AlgebraDescriptor] = None):
    """Spectral norm of a BoundedPoint or of a chart row of alg, or the (n,)
    norms of an (n, d) stack of rows, with the same bits for a row alone, in
    a stack or as its point: the top singular value of _matrix_rows, or on
    spin the closed form on the z-chart row u, of Jordan determinant
    u_0 u_1 - sum_(k >= 2) u_k^2 / 2."""
    if isinstance(p, BoundedPoint):
        alg, p = p.alg, p.row
    V = np.asarray(p, dtype=complex)
    if alg.family == "spin":
        nsq = (V.conj()[..., None, :] @ V[..., None])[..., 0, 0].real
        d2 = np.abs(np.multiply(V[..., 0], V[..., 1])
                    - 0.5 * np.add.reduce(V[..., 2:] ** 2, axis=-1))
        out = np.sqrt((nsq + np.sqrt(np.maximum(nsq * nsq - 4.0 * d2 * d2, 0.0))) / 2.0)
    else:
        out = np.linalg.svd(_matrix_rows(alg, V), compute_uv=False)[..., 0]
    return out if np.ndim(out) else float(out)


def in_bounded_domain(p, tol: float = BOUNDARY_TOL,
                      alg: Optional[AlgebraDescriptor] = None):
    """Spectral norm below 1 - tol, per row for a stack of rows."""
    return spectral_norm(p, alg) < 1.0 - tol


def phi_form(alg: AlgebraDescriptor, zeta, zeta2) -> Element:
    """Phi(zeta, zeta') = 2{zeta, zeta', e}: linear left, conjugate right."""
    zeta, zeta2 = _halfspace_block(alg, zeta), _halfspace_block(alg, zeta2)
    if zeta is None:
        return Element(alg, np.zeros(alg.dim_m, dtype=complex))
    return eja.unembed_matrix(alg, zeta @ zeta2.conj().T)


def siegel_defect(p: SiegelPoint) -> Element:
    """Im z - Phi(zeta, zeta): real for honest points."""
    y = p.z.imag_part()
    if p.alg.siegel_n:
        y = y - phi_form(p.alg, p.zeta, p.zeta).real_part()
    return y


def in_siegel_domain(p: SiegelPoint, tol: float = cones.CONE_TOL) -> bool:
    return cones.in_cone(siegel_defect(p), tol)


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def _one_row(rows, alg: AlgebraDescriptor, v: np.ndarray, pole: str) -> np.ndarray:
    """The first output of rows(alg, stack) on the one-row stack of v, as a
    row. A division by zero or a singular matrix on the way is the pole of
    the transform and raises ValueError, without numpy warnings."""
    with np.errstate(divide="raise", invalid="raise"):
        try:
            return rows(alg, v[None])[0][0]
        except (FloatingPointError, np.linalg.LinAlgError):
            raise ValueError(f"pole of the transform: {pole} is singular") from None


def cayley(p: BoundedPoint) -> SiegelPoint:
    """z -> i (e - z1)^(-1) (e + z1), zeta -> (e - z1)^(-1) zeta: cayley_rows
    on the one row of p."""
    return siegel_from_vector(p.alg, _one_row(cayley_rows, p.alg, p.as_vector(),
                                              "e - z1"))


def inverse_cayley(p: SiegelPoint) -> BoundedPoint:
    """w -> (w - ie)(w + ie)^(-1), omega -> 2i (w + ie)^(-1) omega:
    inverse_cayley_rows on the one row of p."""
    return bounded_from_vector(p.alg, _one_row(inverse_cayley_rows, p.alg,
                                               p.as_vector(), "w + ie"))


def _matrix_rows(alg: AlgebraDescriptor, V: np.ndarray) -> np.ndarray:
    """Embedded matrices of a z-chart row or a stack of rows of a matrix
    family: the p x q (z1 | zeta) when the rows carry a half-space block.
    The products act row by row, so a row has the same bits alone and in
    any stack."""
    chart = eja._matrix_chart(alg)
    m, n, lead = alg.dim_m, chart["n"], V.shape[:-1]
    M = (V[..., None, :m] @ chart["from_z"] @ chart["embed"]).reshape(lead + (n, n))
    if V.shape[-1] > m:
        M = np.concatenate([M, V[..., m:].reshape(lead + (alg.size, -1))], axis=-1)
    return M


def _jordan_inverse_rows(alg: AlgebraDescriptor, U: np.ndarray):
    """(u^(-1), Delta(u)) on a stack of z-chart rows; the inverse is taken
    of the Z_1 part, Delta by the top minor polynomial. U may be
    overwritten.

    u^(-1) is e / Delta(u) at rank 1 and (tr(u) e - u) / Delta(u) at rank 2,
    with tr(u) = <u, e> (e's coordinates sit where the trace weights are 1);
    other ranks invert the matrix picture.
    """
    chart = eja._chart(alg)
    ez = chart["ez"]
    det = cones.minor_polynomials(alg)[-1].eval(U)
    X = U[:, : alg.dim_m]
    if alg.rank == 1:
        return ez * (1.0 / det)[:, None], det
    if alg.rank == 2:
        # 1 / Delta(u) in real arithmetic, then (tr(u) e - u) / Delta(u)
        # written over U one coordinate at a time
        q = np.conj(det)
        q *= 1.0 / (np.square(det.real) + np.square(det.imag))
        tq = X @ (chart["from_z"] @ chart["e"])
        tq *= q
        for k, x in enumerate(X.T):
            x *= q
            np.subtract(ez[k] * tq, x, out=x)
        return X, det
    inv = np.linalg.inv(_matrix_rows(alg, X)).reshape(len(X), -1)
    return inv @ chart["unembed"] @ chart["to_z"], det


def _log_delta_tube(alg: AlgebraDescriptor, Z: Optional[np.ndarray],
                    top: Optional[np.ndarray] = None) -> np.ndarray:
    """Continuous log Delta on a stack Z of z-chart rows (length dim_m) of
    the right tube {Re z in the open cone}. Ranks 1 and 2 take the principal
    log of the top minor (top, or evaluated on Z), as cones.log_delta_j does;
    higher ranks sum the principal logs of the eigenvalues of the matrix
    picture, in the right half-plane, over the block size, their repeat."""
    if alg.rank <= 2:
        if top is None:
            U = np.pad(Z, ((0, 0), (0, alg.siegel_n)))
            top = cones.minor_polynomials(alg)[-1].eval(U)
        # the principal log as log|x| + i arg x: real ufuncs are several
        # times faster than numpy's complex log
        return np.log(np.abs(top)) + 1j * np.angle(top)
    ev = np.linalg.eigvals(_matrix_rows(alg, Z))
    return np.log(ev).sum(axis=1) / eja._block_size(alg)


def inverse_cayley_rows(alg: AlgebraDescriptor, V: np.ndarray):
    """The inverse Cayley transform on a stack of Siegel z-chart rows
    (w, omega), as bounded z-chart rows z = e - 2i u^(-1),
    zeta = 2i u^(-1) omega with u = w + ie, and log Delta(u / 2i) on the
    continuous branch of _log_delta_tube."""
    m = alg.dim_m
    ez = eja._chart(alg)["ez"]
    V = np.asarray(V, dtype=complex)
    U = V.copy()
    U[:, :m] += 1j * ez
    Z = None if alg.rank <= 2 else U[:, :m] / 2j
    inv, det = _jordan_inverse_rows(alg, U)
    out = ez - 2j * inv
    if alg.siegel_n:
        omega = V[:, m:].reshape(len(V), alg.size, -1)
        zeta = (2j * _matrix_rows(alg, inv) @ omega).reshape(len(V), -1)
        out = np.concatenate([out, zeta], axis=1)
    return out, _log_delta_tube(alg, Z, det / (2j) ** alg.rank)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def log_h_pairs(alg: AlgebraDescriptor, V, W) -> np.ndarray:
    """(len(V), len(W)) continuous log h(v_i, w_j) over all pairs of two
    stacks of bounded z-chart rows: the sum of log(1 - mu) over the pencil
    eigenvalues mu, those of Z W* (one stacked eigvals; halved for
    quaternions, whose complex picture doubles each) or, on spin, the roots
    of mu^2 - <u, v> mu + Delta(u) conj Delta(v). Inside the domain they lie
    in the unit disc; one on or outside the unit circle raises ValueError.
    """
    V, W = np.asarray(V, dtype=complex), np.asarray(W, dtype=complex)
    if alg.family == "spin":
        d2 = lambda U: U[:, 0] * U[:, 1] - 0.5 * np.sum(U[:, 2:] ** 2, axis=1)
        tr = V @ W.conj().T
        root = np.sqrt(tr * tr / 4.0 - d2(V)[:, None] * np.conj(d2(W)))
        mu = np.stack([tr / 2.0 + root, tr / 2.0 - root], axis=-1)
    else:
        Z, X = _matrix_rows(alg, V), _matrix_rows(alg, W)
        mu = np.linalg.eigvals(Z[:, None] @ X.conj().transpose(0, 2, 1))
    if np.max(np.abs(mu)) >= 1.0:
        raise ValueError("pencil eigenvalues reach the unit circle")
    b = 1 if alg.family == "spin" else eja._block_size(alg)
    return np.log1p(-mu).sum(axis=-1) / b


def siegel_log_delta_pairs(alg: AlgebraDescriptor, V, W) -> np.ndarray:
    """(len(V), len(W)) log Delta((w_i - conj w_j) / 2i - Phi(omega_i,
    omega_j)) over all pairs of two stacks of Siegel z-chart rows, by
    _log_delta_tube: for interior points each real part is at least the mean
    of the two defects, as Phi(omega_i - omega_j) >= 0. herm_complex's
    z-chart is the row-major matrix, so Phi there is omega_i omega_j*."""
    V, W = np.asarray(V, dtype=complex), np.asarray(W, dtype=complex)
    m = alg.dim_m
    A = (V[:, None, :m] - np.conj(W[:, :m]) @ eja._chart(alg)["conj"]) / 2j
    if alg.siegel_n:
        om, om2 = (X[:, m:].reshape(len(X), alg.size, -1) for X in (V, W))
        A -= np.einsum("iab,jcb->ijac", om, om2.conj()).reshape(len(V), len(W), m)
    return _log_delta_tube(alg, A.reshape(-1, m)).reshape(len(V), len(W))


def _one_pair(p, q):
    """(alg, row of p, row of q) for a 1 x 1 kernel of two points."""
    if p.alg != q.alg:
        raise ValueError("mismatched algebras")
    return p.alg, p.as_vector()[None], q.as_vector()[None]


def kernel_siegel(lam: float, p: SiegelPoint, q: SiegelPoint) -> complex:
    """Delta^(-lambda)((z - conj z') / 2i - Phi(zeta, zeta')), the 1 x 1
    case of siegel_log_delta_pairs."""
    return complex(np.exp(-lam * siegel_log_delta_pairs(*_one_pair(p, q))[0, 0]))


def kernel_bounded(lam: float, z: BoundedPoint, w: BoundedPoint) -> complex:
    """Normalized kernel h(z, w)^(-lambda) on the bounded domain, K(z, 0) = 1,
    the 1 x 1 case of log_h_pairs."""
    return complex(np.exp(-lam * log_h_pairs(*_one_pair(z, w))[0, 0]))


def generic_norm(z: BoundedPoint, w: BoundedPoint) -> complex:
    """h(z, w), the polynomial with K_lambda = h^(-lambda), without
    log_h_pairs: det(I - Z W*) for the real and complex matrix families,
    1 - <u, v> + Delta(u) conj Delta(v) for spin. For quaternions
    det(I - Z W*) = h^2 = det(I + A S) with the skew A = J Z, S = J conj W,
    the determinant of [[A, I], [-I, S]], whose Pfaffian times (-1)^r is h.
    """
    alg = z.alg
    if alg.family == "spin":
        u, v = z.as_vector(), w.as_vector()
        d2 = lambda c: c[0] * c[1] - 0.5 * np.sum(c[2:] ** 2)
        return complex(1.0 - np.vdot(v, u) + d2(u) * np.conj(d2(v)))
    if alg.family == "herm_quaternion":
        J, I = eja._quat_J(alg.size), np.eye(2 * alg.size)
        M = np.block([[J @ z.full_matrix(), I], [-I, J @ w.full_matrix().conj()]])
        return complex((-1) ** alg.size * eja._pfaffian_numeric(M))
    M = z.full_matrix() @ w.full_matrix().conj().T
    return complex(np.linalg.det(np.eye(alg.size) - M))


# ---------------------------------------------------------------------------
# Mobius maps (rank-1 domains: disc and ball)
# ---------------------------------------------------------------------------

@dataclass
class MobiusMap:
    alg: AlgebraDescriptor
    b: np.ndarray  # image of 0 under the inverse involution, |b| < 1
    unitary: np.ndarray  # post-composed unitary

    def __post_init__(self):
        if self.alg.rank != 1:
            raise ValueError("Mobius maps are provided for rank-1 domains only")
        self.b = np.asarray(self.b, dtype=complex).ravel()
        self.unitary = np.asarray(self.unitary, dtype=complex)
        if np.linalg.norm(self.b) >= 1:
            raise ValueError("base point must be inside the ball")


def mobius_identity(alg: AlgebraDescriptor) -> MobiusMap:
    # the b = 0 involution is v -> -v, so the unitary part must undo it
    d = alg.dim_m + alg.siegel_n
    return MobiusMap(alg, np.zeros(d, dtype=complex), -np.eye(d, dtype=complex))


def mobius_sample(alg: AlgebraDescriptor, rng: np.random.Generator) -> MobiusMap:
    """b uniform in the radius-0.8 ball of C^d, drawn exactly as a
    sphere_rows direction times 0.8 U^(1/(2d)) with U uniform (the radius r
    of a uniform point of the unit ball has P(r <= x) = x^(2d)); the unitary
    part is one Haar frame of U(d) (_frames)."""
    d = alg.zdim
    b = sphere_rows(d, 1, rng)[0] * (0.8 * rng.uniform() ** (0.5 / d))
    return MobiusMap(alg, b, np.array(_frames(d, d, 1, rng))[..., 0])


def _ball_involution(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi_b(v) = (b - P v - s Q v) / (1 - <v, b>); phi_b(0) = b, involutive."""
    bb = float(np.vdot(b, b).real)
    if bb == 0.0:
        return -v
    s = np.sqrt(1.0 - bb)
    proj = (np.vdot(b, v) / bb) * b
    return (b - proj - s * (v - proj)) / (1.0 - np.vdot(b, v))


def mobius_apply(phi: MobiusMap, z: BoundedPoint) -> BoundedPoint:
    v = z.as_vector()
    out = phi.unitary @ _ball_involution(phi.b, v)
    return bounded_from_vector(phi.alg, out)


def mobius_jacobian(phi: MobiusMap, z: BoundedPoint) -> complex:
    """Complex Jacobian determinant at z."""
    d = phi.alg.dim_m + phi.alg.siegel_n
    v = z.as_vector()
    bb = float(np.vdot(phi.b, phi.b).real)
    s = np.sqrt(1.0 - bb)
    detU = complex(np.linalg.det(phi.unitary))
    if bb == 0.0:
        return detU * (-1.0) ** d
    return detU * (-1.0) ** d * s ** (d + 1) / (1.0 - np.vdot(phi.b, v)) ** (d + 1)


# ---------------------------------------------------------------------------
# affine group of the Siegel domain
# ---------------------------------------------------------------------------

@dataclass
class AffineMap:
    """n . (t . p): a Heisenberg translation after a triangular dilation."""
    alg: AlgebraDescriptor
    zeta0: Optional[np.ndarray]
    x0: Element
    tri: cones.TriangularElement

    def __post_init__(self):
        if not self.x0.is_real:
            raise ValueError("the translation part lives in the real form")
        self.zeta0 = _halfspace_block(self.alg, self.zeta0)


def heisenberg_apply(alg, zeta0, x0: Element, p: SiegelPoint) -> SiegelPoint:
    """(zeta0, x0) . (zeta, z) = (zeta0+zeta, z + x0 + i Phi(zeta0) + 2i Phi(zeta, zeta0))."""
    shift = x0.as_complex() + 1j * phi_form(alg, zeta0, zeta0) \
        if alg.siegel_n else x0.as_complex()
    z = p.z + shift
    zeta = None
    if alg.siegel_n:
        z = z + 2j * phi_form(alg, p.zeta, zeta0)
        zeta = zeta0 + p.zeta
    return SiegelPoint(alg, zeta, z)


def triangular_apply(t: cones.TriangularElement, p: SiegelPoint) -> SiegelPoint:
    z = cones.t_action(t, p.z)
    zeta = cones.t_action_halfspace(t, p.zeta) if p.alg.siegel_n else None
    return SiegelPoint(p.alg, zeta, z)


def affine_apply(m: AffineMap, p: SiegelPoint) -> SiegelPoint:
    return heisenberg_apply(m.alg, m.zeta0, m.x0, triangular_apply(m.tri, p))


def affine_chart(m: AffineMap):
    """(A, b) with affine_apply(m, p) = A v + b on the z-chart row v of p.

    The triangular part and 2i Phi(zeta, zeta0) are complex-linear in the
    row, so the action is complex-affine: b is the image of the row 0 and
    column k of A the image of e_k less b. A stack V maps to V @ A.T + b.
    """
    d = m.alg.zdim
    rows = np.array([affine_apply(m, siegel_from_vector(m.alg, v)).as_vector()
                     for v in np.vstack([np.zeros(d), np.eye(d)])])
    return (rows[1:] - rows[0]).T, rows[0]


def heisenberg_product(alg, n1, n2):
    """(z1, x1)(z2, x2) = (z1 + z2, x1 + x2 + 2 Im Phi(z1, z2))."""
    z1, x1 = n1
    z2, x2 = n2
    x = x1 + x2
    if alg.siegel_n:
        x = x + 2.0 * phi_form(alg, z1, z2).imag_part()
        return (z1 + z2, x)
    return (None, x)


def affine_compose(m1: AffineMap, m2: AffineMap) -> AffineMap:
    """m1 after m2; the triangular part twists the Heisenberg part."""
    alg = m1.alg
    if alg != m2.alg:
        raise ValueError("mismatched algebras")
    tz2 = cones.t_action_halfspace(m1.tri, m2.zeta0) if alg.siegel_n else None
    tx2 = cones.t_action(m1.tri, m2.x0.as_complex()).real_part()
    zeta, x = heisenberg_product(alg, (m1.zeta0, m1.x0), (tz2, tx2))
    return AffineMap(alg, zeta, x, m1.tri.compose(m2.tri))


def affine_real_jacobian(m: AffineMap) -> float:
    """|det| of the real-linear action on (zeta, z): Delta(t.e)^genus."""
    return cones.character(m.tri, float(m.alg.genus) * np.ones(m.alg.rank))


def invariant_measure_density(p: SiegelPoint) -> float:
    """Delta^(-genus)(Im z - Phi(zeta)) against Lebesgue measure."""
    y = siegel_defect(p)
    if not cones.in_cone(y):
        raise ValueError("point is outside the Siegel domain")
    return cones.delta_power(y, -float(p.alg.genus) * np.ones(p.alg.rank))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

_BOX_SCALE = {"sym_real": np.sqrt(2.0), "herm_complex": 1.0,
              "herm_quaternion": 1.0, "spin": np.sqrt(2.0)}


def sample_bounded(alg: AlgebraDescriptor, rng: np.random.Generator) -> np.ndarray:
    """One uniform chart row of the bounded domain (the as_vector of
    its point) by box rejection: two uniform calls per proposal, each
    proposal's row tested by in_bounded_domain."""
    c = _BOX_SCALE[alg.family]
    d = alg.zdim
    while True:
        v = c * (rng.uniform(-1, 1, size=d) + 1j * rng.uniform(-1, 1, size=d))
        if in_bounded_domain(v, alg=alg):
            return v


@dataclass
class SiegelSamplerConfig:
    """Unused: nothing in the package reads these fields, and
    bergman_norm_mc ignores its config keyword. The benchmark's workloads
    still build one and pass it."""
    sigma_zeta: float = 1.0
    sigma_x: float = 1.0
    sigma_lower: float = 1.0
    sigma_logdiag: float = 1.0
    cauchy_x: bool = False


def _triangular_basis(alg: AlgebraDescriptor) -> np.ndarray:
    """Stack of P_k with t = sum_k c_k P_k, c = (t_11, ..., t_rr, lower
    coordinates), for a matrix family (cached).

    Built from eja's unit table: the diagonal blocks along the first unit,
    then the strictly lower slots block row i, block column j < i, unit.
    Only sym_real's units are real, so its factors stay real.
    """
    if "tri_basis" not in alg._cache:
        units = eja._UNITS[alg.family]
        b = len(units[0])
        slots = ([(i, i, units[0]) for i in range(alg.size)]
                 + [(i, j, u) for i in range(alg.size) for j in range(i)
                    for u in units])
        P = np.zeros((len(slots), b * alg.size, b * alg.size),
                     dtype=np.result_type(*units))
        for k, (i, j, u) in enumerate(slots):
            P[k][eja._block(b, i, j)] = u
        alg._cache["tri_basis"] = P
    return alg._cache["tri_basis"]


def _triangular_from_params(alg: AlgebraDescriptor, theta: np.ndarray):
    """The triangular element of the coordinates theta: log diagonal first,
    then the strictly lower coordinates in the order of _triangular_basis
    (row by row, each block left to right, unit by unit); spin takes
    (log t11, log t22, v)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (alg.dim_m,):
        raise ValueError("parameter vector must have length dim_m")
    if alg.family == "spin":
        return cones.TriangularElement(
            alg, t11=np.exp(theta[0]), t22=np.exp(theta[1]), v=theta[2:])
    c = np.concatenate([np.exp(theta[: alg.rank]), theta[alg.rank:]])
    return cones.TriangularElement(
        alg, mat=np.tensordot(c, _triangular_basis(alg), axes=1))


# ---------------------------------------------------------------------------
# exact weighted draws in polar coordinates, and their Cayley images
# ---------------------------------------------------------------------------

_MAX_PROPOSALS = 2 ** 17  # Jacobi-ensemble proposals drawn at once


def bergman_constant(alg: AlgebraDescriptor, lam: float) -> float:
    """c_lambda, the integral over D of h(z, z)^(lambda - g) in z-chart
    Lebesgue measure: pi^d Gamma_Omega(lambda - d/r) / Gamma_Omega(lambda)
    with d = zdim and Gamma_Omega(s) proportional to
    prod_(j < r) Gamma(s - j a/2) (Faraut-Koranyi 1990; Hua). Finite for
    lambda > g - 1."""
    if lam <= alg.genus - 1:
        raise ValueError("the weighted volume diverges at or below genus - 1")
    d, r, a = alg.zdim, alg.rank, alg.peirce_a
    return math.exp(d * math.log(math.pi) + sum(
        math.lgamma(lam - d / r - j * a / 2.0) - math.lgamma(lam - j * a / 2.0)
        for j in range(r)))


def _jacobi_ensemble(alg: AlgebraDescriptor, lam: float, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(n, r) draws u with density proportional to prod_(i<j) |u_i - u_j|^a
    prod_j u_j^b (1 - u_j)^(lambda - g) on [0, 1)^r, b = siegel_n / r.

    Rank 1: a Beta(b + 1, lambda - g + 1) draw, by its inverse CDF when
    b = 0. Rank 2 with b = 0: s = 1 - u has density proportional to
    |s_1 - s_2|^a (s_1 s_2)^(c - 1), c = lambda - g + 1, which in the larger
    s_1 = M and the ratio x = s_2 / M factorizes as
    M^(a + 2c - 1) x^(c - 1) (1 - x)^a: M ~ Beta(a + 2c, 1) and, a being an
    integer, x ~ Beta(c, a + 1) = prod_(j=0..a) U_j^(1/(c + j)) with the U_j
    uniform, since Beta(s, 1) Beta(s + 1, t) ~ Beta(s, t + 1). Each
    U^(1/s) is drawn as exp(-E / s), E standard exponential. The rows come
    sorted, which the Haar measure of K makes immaterial. Otherwise each
    u_j is a Beta(b + 1, c) draw and a row is kept with probability
    prod_(i<j) |u_i - u_j|^a, which is at most 1.
    """
    r, a, b = alg.rank, alg.peirce_a, alg.siegel_n // alg.rank
    c = lam - alg.genus + 1.0

    def beta(m: int) -> np.ndarray:
        if b == 0:
            return 1.0 - (1.0 - rng.uniform(size=(m, r))) ** (1.0 / c)
        return rng.beta(b + 1.0, c, size=(m, r))

    if r == 1:
        return beta(n)
    if r == 2 and b == 0:
        E = rng.standard_exponential(size=(a + 2, n))
        s = np.empty((2, n))
        np.exp(E[0] * (-1.0 / (a + 2.0 * c)), out=s[0])  # M
        np.exp((-1.0 / (c + np.arange(a + 1.0))) @ E[1:], out=s[1])  # x
        s[1] *= s[0]
        return np.subtract(1.0, s, out=s).T
    i, j = np.triu_indices(r, k=1)
    parts, have, tried = [], 0, 0
    while have < n:
        # enough proposals for the rest at the acceptance seen so far
        m = min(int((n - have) * (tried + 1) / (have + 1) * 1.1) + 64,
                _MAX_PROPOSALS)
        U = beta(m)
        keep = rng.uniform(size=m) < np.prod(np.abs(U[:, i] - U[:, j]),
                                             axis=1) ** a
        parts.append(U[keep])
        have += len(parts[-1])
        tried += m
    return np.concatenate(parts)[:n]


def _orthonormal_rows(G: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the rows G[0], G[1], ... of a (k, d, n) stack, that
    is on n frames of k vectors in C^d (or R^d), the sample index last so
    that every step runs on contiguous length-n vectors. On a Gaussian stack
    the frames are Haar distributed (for k = d, the unitary factor of an LQ
    decomposition with positive diagonal), drawn without one LAPACK call
    per matrix."""
    Q = np.array(G)
    for j in range(len(Q)):
        for i in range(j):
            Q[j] -= Q[i] * np.sum(Q[i].conj() * Q[j], axis=0)
        Q[j] /= np.sqrt(np.sum((Q[j] * Q[j].conj()).real, axis=0))
    return Q


def sphere_rows(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows uniform on the unit sphere of C^d: complex Gaussians over their
    norms, which are taken in real arithmetic."""
    G = rng.standard_normal(size=(d, 2 * n)).view(complex)
    s = np.zeros(n)
    for row in G:
        s += np.square(row.real)
        s += np.square(row.imag)
    G *= np.divide(1.0, np.sqrt(s, out=s), out=s)
    return G.T


def _u2_rows(n: int, rng: np.random.Generator):
    """Rows of n Haar elements of U(2) as a pair of (2, n) stacks, from six
    normals each: the first row (alpha, beta) uniform on the unit sphere of
    C^2, the second e^(i phi) (-conj beta, conj alpha) with a uniform phase,
    which is uniform on the unit vectors orthogonal to the first."""
    first = sphere_rows(2, n, rng).T
    second = np.conj(first[::-1])
    second *= sphere_rows(1, n, rng)[:, 0]
    second[0] *= -1.0
    return first, second


def _frames(k: int, d: int, n: int, rng: np.random.Generator):
    """n Haar frames of k orthonormal vectors in C^d as the rows Q[j], each
    (d, n) with the sample index last: _u2_rows for U(2), else
    _orthonormal_rows of complex Gaussians. For k = d row j of sample b,
    Q[j][:, b], is row j of a Haar unitary."""
    if k == d == 2:
        return _u2_rows(n, rng)
    G = rng.standard_normal(size=(k, d, 2 * n)).view(complex)
    return _orthonormal_rows(G)


def _polar_rows(alg: AlgebraDescriptor, t: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """z-chart rows of k . sum_j t_j c_j, one Haar k of the full K per row of
    t (n, r).

    Rank 1: K is transitive on each sphere of the ball, so a row is t times
    a sphere_rows direction. Otherwise, with Q a stack of Haar frames (rows
    Q[j], from _frames): sym_real
    Z = Q^T diag(t) Q = sum_j t_j Q[j] Q[j]^T (u Z u^T, u in U(r)), whose
    chart is the upper entries row by row, the off-diagonal ones times
    sqrt 2 (eja._coord_matrices); herm_complex Z = U^T diag(t) V with V the
    first p rows of a unitary of U(q) (U Z V*); herm_quaternion
    A = Q^T D Q with D = J diag(t_j I_2), on the skew picture A = J H whose
    upper entries are the chart (u A u^T, u in U(2r)); spin
    e^(i theta) O, O in SO(m), in the unitary coordinates y with
    Delta = sum y^2 / 2 (u_0, u_1 = (y_0 +- i y_1) / sqrt 2, u_k = i y_k),
    where the frame sum is ((t_1 + t_2) e_0 - i (t_1 - t_2) e_1) / sqrt 2.
    Products run with the sample index last, and the rows come as the
    transpose of that stack.
    """
    n, r = t.shape
    t = t.T
    if r == 1:
        return t[0][:, None] * sphere_rows(alg.zdim, n, rng)
    if alg.family == "spin":
        F = _orthonormal_rows(rng.normal(size=(2, alg.dim_m, n)))
        ph = np.exp(2j * np.pi * rng.uniform(size=n)) * eja._ISQ2
        y = ph * (F[0] * (t[0] + t[1]) - 1j * F[1] * (t[0] - t[1]))
        u = 1j * y
        u[0] = (y[0] + 1j * y[1]) * eja._ISQ2
        u[1] = (y[0] - 1j * y[1]) * eja._ISQ2
        return u.T
    if alg.family == "herm_complex":
        p = alg.size
        U = _frames(p, p, n, rng)
        V = _frames(p, alg.cols, n, rng)
        Z = sum((U[j] * t[j])[:, None] * V[j][None] for j in range(p))
        return np.concatenate([Z[:, :p].reshape(p * p, n),
                               Z[:, p:].reshape(-1, n)]).T
    if alg.family == "sym_real":
        Q = _frames(r, r, n, rng)
        a, b = np.triu_indices(r)
        P = np.empty((len(a), n), dtype=complex)
        for k, (i, j) in enumerate(zip(a, b)):
            np.multiply(Q[0][i], Q[0][j], out=P[k])
            P[k] *= t[0]
            for l in range(1, r):
                x = Q[l][i] * Q[l][j]
                x *= t[l]
                P[k] += x
            if i != j:
                P[k] *= math.sqrt(2.0)
        return P.T
    Q = _frames(2 * r, 2 * r, n, rng)
    a, b = np.triu_indices(2 * r, k=1)
    return sum(t[j] * (Q[2 * j][a] * Q[2 * j + 1][b]
                       - Q[2 * j + 1][a] * Q[2 * j][b]) for j in range(r)).T


def _spin_lambda(m: int) -> np.ndarray:
    """Chart -> quadric coordinates: Delta_2 becomes sum q_k^2."""
    lam = np.zeros((m, m), dtype=complex)
    lam[0, 0] = 0.5
    lam[0, 1] = 0.5
    lam[1, 0] = 0.5 / 1j
    lam[1, 1] = -0.5 / 1j
    for k in range(2, m):
        lam[k, k] = 1.0 / (1j * np.sqrt(2.0))
    return lam


def haar_K(alg: AlgebraDescriptor, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, zdim, zdim) z-chart matrices of n Haar elements of the full
    isotropy group K, each a complex-linear triple automorphism.

    With u, v Haar unitaries whose rows come from _frames: sym_real
    Z -> u Z u^T, u in U(r), through the chart's matrix picture;
    herm_complex Z -> u Z v*, u in U(p), v in U(q), which is
    u_ik conj(v_jl) on row-major entries, the chart listing the z1 block
    first, then the half-space block; herm_quaternion A -> u A u^T, u in
    U(2r), on the skew picture A = J H whose upper entries are the chart, so
    the matrix is the 2 x 2 minors of u; spin e^(i theta) O, O in O(m), on
    the quadric coordinates of _spin_lambda.
    """
    def unitaries(d: int) -> np.ndarray:
        return np.moveaxis(np.array(_frames(d, d, n, rng)), -1, 0)

    if alg.family == "sym_real":
        r = alg.size
        u = unitaries(r)
        ch = eja._chart(alg)
        kron = np.einsum("bik,bjl->bijkl", u, u).reshape(n, r * r, r * r)
        return (ch["unembed"] @ ch["to_z"]).T @ kron @ (ch["from_z"] @ ch["embed"]).T
    if alg.family == "herm_complex":
        p, q = alg.size, alg.cols
        u, v = unitaries(p), unitaries(q)
        K = u[:, :, None, :, None] * v.conj()[:, None, :, None, :]  # [b, i, j, k, l]
        cols = np.concatenate([K[..., :p].reshape(n, p, q, -1),
                               K[..., p:].reshape(n, p, q, -1)], axis=3)
        return np.concatenate([cols[:, :, :p].reshape(n, -1, alg.zdim),
                               cols[:, :, p:].reshape(n, -1, alg.zdim)], axis=1)
    if alg.family == "herm_quaternion":
        u = unitaries(2 * alg.size)
        a, b = np.triu_indices(2 * alg.size, k=1)
        return (u[:, a][:, :, a] * u[:, b][:, :, b]
                - u[:, a][:, :, b] * u[:, b][:, :, a])
    if alg.family == "spin":
        m = alg.dim_m
        O = np.moveaxis(_orthonormal_rows(rng.normal(size=(m, m, n))), -1, 0)
        ph = np.exp(2j * np.pi * rng.uniform(size=n))[:, None, None]
        lam = _spin_lambda(m)
        return ph * (np.linalg.inv(lam) @ O @ lam)
    raise ValueError(f"unsupported family: {alg.family}")


def sample_weighted_bounded(alg: AlgebraDescriptor, lam: float, n: int,
                            rng: np.random.Generator):
    """n exact draws from c_lambda^(-1) h(z, z)^(lambda - g) dm (z-chart
    Lebesgue measure, c_lambda = bergman_constant) as z-chart rows
    (as_vector per row), and their (n, r) squared radii u.

    Polar coordinates z = k . sum_j t_j c_j: u = t^2 from _jacobi_ensemble,
    then k Haar in the full K (_polar_rows); h(z, z) = prod_j (1 - u_j).
    At lambda = g the rows are uniform on D.
    """
    if lam <= alg.genus - 1:
        raise ValueError("the weighted volume diverges at or below genus - 1")
    u = _jacobi_ensemble(alg, lam, n, rng)
    return _polar_rows(alg, np.sqrt(u), rng), u


def cayley_rows(alg: AlgebraDescriptor, V: np.ndarray):
    """The Cayley transform on a stack of bounded z-chart rows: Siegel rows
    w = i (e + z)(e - z)^(-1) = 2i (e - z)^(-1) - ie, with
    omega = (e - z)^(-1) zeta for herm_complex(p, q > p), and
    log |Delta(e - z)|, which gives the real Jacobian in z-chart coordinates.

    c'(z) is 2i P((e - z)^(-1)) on Z_1, of determinant
    (2i)^m Delta(e - z)^(-2m/r), times left multiplication by (e - z)^(-1)
    on the half-space block, of determinant Delta(e - z)^(-(q - p)). Since
    g = 2m/r + (q - p), |det c'(z)|^2 = 2^(2m) |Delta(e - z)|^(-2g) with
    m = dim_m. Delta((w + ie)/2i) = Delta(e - z)^(-1) on tube domains.
    """
    m = alg.dim_m
    ez = eja._chart(alg)["ez"]
    X = -np.asarray(V, dtype=complex)
    X[:, :m] += ez
    W, det = _jordan_inverse_rows(alg, X)
    if alg.siegel_n:
        zeta = np.asarray(V)[:, m:].reshape(len(V), alg.size, -1)
        omega = (_matrix_rows(alg, W) @ zeta).reshape(len(V), -1)
    W *= 2j
    W -= 1j * ez
    if alg.siegel_n:
        W = np.concatenate([W, omega], axis=1)
    # log |Delta| in real arithmetic
    return W, 0.5 * np.log(np.square(det.real) + np.square(det.imag))


def sample_siegel(alg: AlgebraDescriptor, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n Siegel z-chart rows (as_vector per row): the cayley_rows
    images of n uniform draws on the bounded domain, which are
    sample_weighted_bounded at lambda = g."""
    V, _ = sample_weighted_bounded(alg, alg.genus, n, rng)
    return cayley_rows(alg, V)[0]


def siegel_log_delta_rows(alg: AlgebraDescriptor, W: np.ndarray) -> np.ndarray:
    """log Delta(Im w - Phi(omega, omega)) on a stack of interior Siegel
    z-chart rows (siegel_defect per row).

    At rank 2, Delta(y) = (tr(y)^2 - tr(y^2)) / 2 in real arithmetic on the
    coordinates of y, with tr(y) = <y, e> and tr(y^2) = <y, y> =
    sum_k w_k y_k^2 (eja._trace_weights); other ranks take _log_delta_tube
    on the z-chart of y.
    """
    chart = eja._chart(alg)
    m = alg.dim_m
    W = np.asarray(W, dtype=complex)
    Y = (W[:, :m] @ chart["from_z"]).imag
    if alg.siegel_n:
        om = W[:, m:].reshape(len(W), alg.size, -1)
        OO = om @ om.conj().transpose(0, 2, 1)
        Y = Y - (OO.reshape(len(W), -1) @ chart["unembed"]).real
    if alg.rank == 2:
        tr = Y @ chart["e"]
        return np.log(0.5 * (np.square(tr) - np.square(Y) @ eja._trace_weights(alg)))
    return _log_delta_tube(alg, Y @ chart["to_z"]).real
