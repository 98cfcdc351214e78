"""Bounded and Siegel realizations: membership, Cayley transform, kernels,
group actions, the invariant measure, and samplers.

Points of the bounded domain pair a complex algebra element z1 with a
rectangular block zeta (only herm_complex(p, q>p) has one). Siegel points
pair zeta with z in the complexified algebra; membership means
Im z - Phi(zeta, zeta) lies in the open cone.

Kernels carry no normalizing constants: the Siegel kernel is the plain
Delta^(-lambda) of the polarized argument, and the bounded kernel is
h(z, w)^(-lambda), so K(z, 0) = 1. Every family computes log h in closed
form as the sum of log(1 - mu) over the eigenvalues mu of a pencil: Z W*
for the matrix families, a 2 x 2 closed form for the rank-2 spin factor.
They lie in the unit disc, so the branch is the continuous one.

Points travel as stacks of chart vectors (spaces.point_vector per row) where
Monte Carlo needs many: sample_weighted_bounded draws exactly from
h(z, z)^(lambda - g) dm over its mass bergman_constant, in polar
coordinates; cayley_rows carries such rows to the Siegel side with the real
Jacobian of the map, siegel_log_delta_rows gives log Delta of their defect,
and inverse_cayley_rows maps tube points back. sample_siegel_batch draws the
Siegel proposal of the Gram search as arrays, with its exact log density.
bounded_from_vector and siegel_from_vector turn one row into a point.
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


@dataclass
class BoundedPoint:
    alg: AlgebraDescriptor
    z1: Element
    zeta: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.z1.alg != self.alg:
            raise ValueError("element does not belong to the stated algebra")
        self.zeta = _halfspace_block(self.alg, self.zeta)

    def full_matrix(self) -> np.ndarray:
        """Embedded picture; for herm_complex the full p x q matrix."""
        if self.alg.family == "herm_complex":
            return eja.full_matrix(self.z1, self.zeta)
        return eja.embed_matrix(self.z1)

    def as_vector(self) -> np.ndarray:
        """Coordinates as one complex vector (rank-1 domains: the ball)."""
        v = eja.to_zchart(self.z1.as_complex())
        if self.zeta is not None:
            v = np.concatenate([v, self.zeta.ravel()])
        return v


def bounded_from_vector(alg: AlgebraDescriptor, v: np.ndarray) -> BoundedPoint:
    v = np.asarray(v, dtype=complex)
    z1 = eja.from_zchart(alg, v[: alg.dim_m])
    zeta = None
    if alg.siegel_n:
        zeta = v[alg.dim_m:].reshape(alg.size, alg.cols - alg.size)
    return BoundedPoint(alg, z1, zeta)


@dataclass
class SiegelPoint:
    alg: AlgebraDescriptor
    zeta: Optional[np.ndarray]
    z: Element

    def __post_init__(self):
        if self.z.alg != self.alg:
            raise ValueError("element does not belong to the stated algebra")
        self.z = self.z.as_complex()
        self.zeta = _halfspace_block(self.alg, self.zeta)


def siegel_from_vector(alg: AlgebraDescriptor, v: np.ndarray) -> SiegelPoint:
    """Inverse of spaces.point_vector on the Siegel side: z-chart of z, then
    the half-space block."""
    v = np.asarray(v, dtype=complex)
    zeta = None
    if alg.siegel_n:
        zeta = v[alg.dim_m:].reshape(alg.size, alg.cols - alg.size)
    return SiegelPoint(alg, zeta, eja.from_zchart(alg, v[: alg.dim_m]))


def siegel_base_point(alg: AlgebraDescriptor) -> SiegelPoint:
    return SiegelPoint(alg, None, 1j * eja.identity(alg))


# ---------------------------------------------------------------------------
# spectral norm and membership
# ---------------------------------------------------------------------------

def spectral_norm(p: BoundedPoint) -> float:
    alg = p.alg
    if alg.family == "spin":
        u = eja.to_zchart(p.z1.as_complex())
        nsq = float(np.vdot(u, u).real)
        d2 = abs(u[0] * u[1] - 0.5 * np.sum(u[2:] ** 2))
        disc = max(nsq * nsq - 4.0 * d2 * d2, 0.0)
        return float(np.sqrt((nsq + np.sqrt(disc)) / 2.0))
    sv = np.linalg.svd(p.full_matrix(), compute_uv=False)
    return float(sv[0])


def in_bounded_domain(p: BoundedPoint, tol: float = BOUNDARY_TOL) -> bool:
    return spectral_norm(p) < 1.0 - tol


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

def cayley(p: BoundedPoint) -> SiegelPoint:
    """z -> i (e - z1)^(-1) (e + z1), zeta -> (e - z1)^(-1) zeta."""
    alg = p.alg
    e = eja.identity(alg)
    if alg.family == "herm_complex":
        Z = eja.embed_matrix(p.z1.as_complex())
        I = np.eye(alg.size)
        try:
            inv = np.linalg.inv(I - Z)
        except np.linalg.LinAlgError:
            raise ValueError("pole of the transform: e - z1 is singular")
        w = eja.unembed_matrix(alg, 1j * inv @ (I + Z))
        omega = inv @ p.zeta if alg.siegel_n else None
        return SiegelPoint(alg, omega, w)
    try:
        inv = eja.inverse(e - p.z1.as_complex())
    except np.linalg.LinAlgError:
        raise ValueError("pole of the transform: e - z1 is singular")
    # inv and e + z1 generate an associative subalgebra, the product is safe
    w = 1j * eja.jordan_product(inv, e + p.z1.as_complex())
    return SiegelPoint(alg, None, w)


def inverse_cayley(p: SiegelPoint) -> BoundedPoint:
    """w -> (w - ie)(w + ie)^(-1), omega -> 2i (w + ie)^(-1) omega."""
    alg = p.alg
    e = eja.identity(alg)
    if alg.family == "herm_complex":
        W = eja.embed_matrix(p.z)
        I = np.eye(alg.size)
        try:
            inv = np.linalg.inv(W + 1j * I)
        except np.linalg.LinAlgError:
            raise ValueError("pole of the transform: w + ie is singular")
        z1 = eja.unembed_matrix(alg, (W - 1j * I) @ inv)
        zeta = 2j * inv @ p.zeta if alg.siegel_n else None
        return BoundedPoint(alg, z1, zeta)
    try:
        inv = eja.inverse(p.z + 1j * e)
    except np.linalg.LinAlgError:
        raise ValueError("pole of the transform: w + ie is singular")
    z1 = eja.jordan_product(p.z - 1j * e, inv)
    return BoundedPoint(alg, z1, None)


def _jordan_inverse_rows(alg: AlgebraDescriptor, U: np.ndarray):
    """(u^(-1), Delta(u)) on a stack of z-chart rows; the inverse is taken
    of the Z_1 part, Delta by the top minor polynomial.

    u^(-1) is e / Delta(u) at rank 1 and (tr(u) e - u) / Delta(u) at rank 2,
    with tr(u) = <u, e> (e's coordinates sit where the trace weights are 1);
    other ranks invert the matrix picture.
    """
    chart = eja._chart(alg)
    e = eja.identity(alg)
    ez = eja.to_zchart(e)
    det = cones.minor_polynomials(alg)[-1].eval(U)
    X = U[:, : alg.dim_m]
    if alg.rank == 1:
        return ez * (1.0 / det)[:, None], det
    if alg.rank == 2:
        tr = X @ (chart["from_z"] @ e.coords)
        return (tr[:, None] * ez - X) * (1.0 / det)[:, None], det
    M = (X @ chart["from_z"] @ chart["embed"]).reshape(-1, chart["n"], chart["n"])
    inv = np.linalg.inv(M).reshape(len(X), -1) @ chart["unembed"] @ chart["to_z"]
    return inv, det


def inverse_cayley_rows(alg: AlgebraDescriptor, V: np.ndarray):
    """inverse_cayley on a stack of tube-family z-chart rows w, as z-chart
    rows, with log Delta((w + ie)/2i) on the continuous branch.

    z = e - 2i u^(-1) for u = w + ie. Ranks 1 and 2 take the principal log
    of Delta(u / 2i), as cones.log_delta_j does. Other ranks sum the
    principal logs of the eigenvalues of u / 2i, which lie in the right
    half-plane (the hermitian part (Im w + e)/2 is positive), divided by the
    block size.
    """
    ez = eja.to_zchart(eja.identity(alg))
    U = np.asarray(V, dtype=complex) + 1j * ez
    if alg.rank <= 2:
        inv, det = _jordan_inverse_rows(alg, U)
        # the principal log as log|x| + i arg x: real ufuncs are several
        # times faster than numpy's complex log
        x = det / (2j) ** alg.rank
        return ez - 2j * inv, np.log(np.abs(x)) + 1j * np.angle(x)
    chart = eja._chart(alg)
    M = (U @ chart["from_z"] @ chart["embed"]).reshape(-1, chart["n"], chart["n"])
    inv = np.linalg.inv(M).reshape(len(U), -1) @ chart["unembed"] @ chart["to_z"]
    logdet = np.log(np.linalg.eigvals(M / 2j)).sum(axis=1) / eja._block_size(alg)
    return ez - 2j * inv, logdet


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel_siegel(lam: float, p: SiegelPoint, q: SiegelPoint) -> complex:
    """Delta^(-lambda)((z - conj z') / 2i - Phi(zeta, zeta'))."""
    alg = p.alg
    if alg != q.alg:
        raise ValueError("mismatched algebras")
    arg = Element(alg, (p.z.coords - np.conj(q.z.coords)) / 2j)
    if alg.siegel_n:
        arg = arg - phi_form(alg, p.zeta, q.zeta)
    s = -lam * np.ones(alg.rank)
    return cones.delta_power_complex(arg, s)


def _spin_pencil(z: BoundedPoint, w: BoundedPoint) -> tuple[complex, complex]:
    """(a + b, a b) with h(z, w) = (1 - a)(1 - b) on the rank-2 spin factor:
    <u, v> and Delta(u) conj Delta(v) in the unitary z-chart."""
    u = eja.to_zchart(z.z1.as_complex())
    v = eja.to_zchart(w.z1.as_complex())
    d2 = lambda c: c[0] * c[1] - 0.5 * np.sum(c[2:] ** 2)
    return complex(np.vdot(v, u)), complex(d2(u) * np.conj(d2(v)))


def _log_generic_norm(z: BoundedPoint, w: BoundedPoint) -> complex:
    """Continuous log h(z, w): the sum of log(1 - mu) over the pencil
    eigenvalues mu, zero at w = 0.

    mu runs over the eigenvalues of Z W* for the matrix families and over
    the two roots a, b for spin. Inside the domain they lie in the unit
    disc, so the sum is the continuous branch. The quaternionic complex
    picture doubles every eigenvalue, so its sum is halved.
    """
    if z.alg.family == "spin":
        tr, det = _spin_pencil(z, w)
        root = np.sqrt(tr * tr / 4.0 - det)
        mu = np.array([tr / 2.0 + root, tr / 2.0 - root])
    else:
        mu = np.linalg.eigvals(z.full_matrix() @ w.full_matrix().conj().T)
    if np.max(np.abs(mu)) >= 1.0:
        raise ValueError("pencil eigenvalues reach the unit circle")
    out = complex(np.sum(np.log1p(-mu)))
    return out if z.alg.family == "spin" else out / eja._block_size(z.alg)


def kernel_bounded(lam: float, z: BoundedPoint, w: BoundedPoint) -> complex:
    """Normalized kernel h(z, w)^(-lambda) on the bounded domain, K(z, 0) = 1."""
    if z.alg != w.alg:
        raise ValueError("mismatched algebras")
    return complex(np.exp(-lam * _log_generic_norm(z, w)))


def generic_norm(z: BoundedPoint, w: BoundedPoint) -> complex:
    """h(z, w): the sesquiholomorphic polynomial with K_lambda = h^(-lambda).

    det(I - Z W*) for the real and complex matrix families and 1 - (a + b) + ab
    for spin; the quaternionic h is the square root of that determinant,
    taken on the continuous branch.
    """
    alg = z.alg
    if alg.family == "spin":
        tr, det = _spin_pencil(z, w)
        return 1.0 - tr + det
    if alg.family == "herm_quaternion":
        return complex(np.exp(_log_generic_norm(z, w)))
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
    """b uniform in the radius-0.8 ball, Haar unitary part."""
    d = alg.dim_m + alg.siegel_n
    while True:
        b = 0.8 * (rng.uniform(-1, 1, size=d) + 1j * rng.uniform(-1, 1, size=d))
        if np.linalg.norm(b) < 0.8:
            break
    return MobiusMap(alg, b, _haar_unitary(d, rng))


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar element of U(n): QR of a complex Gaussian, phases fixed by R."""
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


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


def sample_bounded(alg: AlgebraDescriptor, rng: np.random.Generator):
    """One uniform point of the bounded domain by box rejection."""
    c = _BOX_SCALE[alg.family]
    d = alg.dim_m + alg.siegel_n
    while True:
        v = c * (rng.uniform(-1, 1, size=d) + 1j * rng.uniform(-1, 1, size=d))
        p = bounded_from_vector(alg, v)
        if in_bounded_domain(p):
            return p


@dataclass
class SiegelSamplerConfig:
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


def _orbit_form(alg: AlgebraDescriptor) -> np.ndarray:
    """R with t . e = (c outer c) @ R in chart coordinates (cached).

    c = (t_11, ..., t_rr, lower coordinates): for a matrix family as in
    _triangular_basis, R being the real parts of unembed(P_a P_b*); for spin
    c = (t11, t22, v) and t . e = (t11^2, t22^2 + |v|^2, t11 v).
    """
    if "orbit_form" not in alg._cache:
        m = alg.dim_m
        if alg.family == "spin":
            R = np.zeros((m, m, m))
            R[0, 0, 0] = R[1, 1, 1] = 1.0
            for k in range(2, m):
                R[k, k, 1] = 1.0
                R[0, k, k] = R[k, 0, k] = 0.5
            R = R.reshape(m * m, m)
        else:
            P = _triangular_basis(alg)
            PP = np.einsum("aij,bkj->abik", P, P.conj()).reshape(m * m, -1)
            R = (PP @ eja._chart(alg)["unembed"]).real.copy()
        alg._cache["orbit_form"] = R
    return alg._cache["orbit_form"]


def _triangular_params(t: cones.TriangularElement) -> np.ndarray:
    """Coordinates: log diagonal first, then the strictly lower block.

    The lower coordinates follow _triangular_basis: row by row, each block
    left to right, each block unit by unit (1; 1, i; 1, i, j, k). Spin takes
    (log t11, log t22, v).
    """
    if t.alg.family == "spin":
        return np.concatenate([[np.log(t.t11), np.log(t.t22)], t.v])
    P = _triangular_basis(t.alg)[t.alg.rank:]
    low = np.einsum("kij,ij->k", P.conj(), t.mat).real / eja._block_size(t.alg)
    return np.concatenate([np.log(t.diagonal()), low])


def _triangular_from_params(alg: AlgebraDescriptor, theta: np.ndarray):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (alg.dim_m,):
        raise ValueError("parameter vector must have length dim_m")
    if alg.family == "spin":
        return cones.TriangularElement(
            alg, t11=np.exp(theta[0]), t22=np.exp(theta[1]), v=theta[2:])
    c = np.concatenate([np.exp(theta[: alg.rank]), theta[alg.rank:]])
    return cones.TriangularElement(
        alg, mat=np.tensordot(c, _triangular_basis(alg), axes=1))


def _orbit_powers(alg: AlgebraDescriptor) -> tuple[float, np.ndarray]:
    """(C, k) with |det d(theta -> t . e)| = C prod_j t_jj^(k_j).

    k_j = 2 + a (r - j): t_jj^2 from the diagonal coordinate and t_jj from
    each of the a (r - j) lower coordinates below it. C = 2^r sqrt(2)^(m - r)
    for the matrix families (off-diagonal chart coordinates carry sqrt 2),
    4 for spin.
    """
    r = alg.rank
    C = 4.0 if alg.family == "spin" else 2.0 ** ((alg.dim_m + r) / 2.0)
    return C, 2.0 + alg.peirce_a * (r - np.arange(1.0, r + 1))


def orbit_jacobian(t: cones.TriangularElement) -> float:
    """|det d(theta -> t(theta) . e)| at t, in closed form."""
    C, k = _orbit_powers(t.alg)
    return C * cones.character(t, k / 2.0)


def _gauss_logpdf(v: np.ndarray, sigma: float) -> np.ndarray:
    """N(0, sigma^2) log density summed over the last axis."""
    v = np.asarray(v, dtype=float)
    return (-0.5 * np.sum((v / sigma) ** 2, axis=-1)
            - v.shape[-1] * np.log(sigma * np.sqrt(2 * np.pi)))


def _cauchy_logpdf(v: np.ndarray, sigma: float) -> np.ndarray:
    """Cauchy(0, sigma) log density summed over the last axis."""
    v = np.asarray(v, dtype=float)
    return np.sum(-np.log(np.pi * sigma * (1.0 + (v / sigma) ** 2)), axis=-1)


def _proposal_logq(alg: AlgebraDescriptor, cfg: SiegelSamplerConfig, zeta,
                   x, logdiag, lower) -> np.ndarray:
    """Log proposal density (Lebesgue on (zeta, z)) from the draws, each an
    (n, k) block; zeta is flattened, None for the tube families."""
    out = (_gauss_logpdf(logdiag, cfg.sigma_logdiag)
           + _gauss_logpdf(lower, cfg.sigma_lower)
           + (_cauchy_logpdf(x, cfg.sigma_x) if cfg.cauchy_x
              else _gauss_logpdf(x, cfg.sigma_x)))
    if zeta is not None:
        out = out + _gauss_logpdf(np.concatenate([zeta.real, zeta.imag], axis=-1),
                                  cfg.sigma_zeta)
    C, k = _orbit_powers(alg)
    return out - np.log(C) - logdiag @ k


def siegel_proposal_logdensity(p: SiegelPoint,
                               cfg: SiegelSamplerConfig) -> float:
    """Exact log density of sample_siegel at p (Lebesgue on (zeta, z)):
    the draws recovered from p, the triangular ones by Cholesky."""
    r = p.alg.rank
    theta = _triangular_params(cones.cholesky_t(siegel_defect(p)))
    zeta = None if p.zeta is None else p.zeta.ravel()
    return float(_proposal_logq(p.alg, cfg, zeta, p.z.real_part().coords,
                                theta[:r], theta[r:]))


def sample_siegel_batch(alg: AlgebraDescriptor, n: int,
                        rng: np.random.Generator,
                        cfg: SiegelSamplerConfig = SiegelSamplerConfig()):
    """n interior draws as arrays: z-chart vectors (n, zdim) as
    spaces.point_vector gives them, the log proposal density, and log Delta
    of the defect Im z - Phi(zeta, zeta) = t . e, which is 2 sum_j log t_jj.

    Draws zeta (real, then imaginary parts), x, the log diagonal, then the
    lower coordinates, each as one (n, k) block, so n = 1 repeats the
    stream of sample_siegel.
    """
    r, m = alg.rank, alg.dim_m
    zeta = None
    if alg.siegel_n:
        shape = (n, alg.size, alg.cols - alg.size)
        zeta = cfg.sigma_zeta * (rng.normal(size=shape)
                                 + 1j * rng.normal(size=shape))
    x = cfg.sigma_x * (rng.standard_cauchy(size=(n, m)) if cfg.cauchy_x
                       else rng.normal(size=(n, m)))
    logdiag = cfg.sigma_logdiag * rng.normal(size=(n, r))
    lower = cfg.sigma_lower * rng.normal(size=(n, m - r))
    c = np.concatenate([np.exp(logdiag), lower], axis=1)
    y = (c[:, :, None] * c[:, None, :]).reshape(n, -1) @ _orbit_form(alg)
    chart = eja._chart(alg)
    if alg.siegel_n:
        ZZ = zeta @ zeta.conj().transpose(0, 2, 1)
        y = y + (ZZ.reshape(n, -1) @ chart["unembed"]).real
        zeta = zeta.reshape(n, -1)
    V = (x + 1j * y) @ chart["to_z"]
    if zeta is not None:
        V = np.concatenate([V, zeta], axis=1)
    return (V, _proposal_logq(alg, cfg, zeta, x, logdiag, lower),
            2.0 * logdiag.sum(axis=1))


def sample_siegel(alg: AlgebraDescriptor, rng: np.random.Generator,
                  cfg: SiegelSamplerConfig = SiegelSamplerConfig()):
    """Draw (point, log proposal density); the point is always interior.
    Row 0 of sample_siegel_batch with n = 1."""
    V, logq, _ = sample_siegel_batch(alg, 1, rng, cfg)
    return siegel_from_vector(alg, V[0]), float(logq[0])


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
    M^(a + 2c - 1) x^(c - 1) (1 - x)^a, so both are drawn exactly (the rows
    come sorted, which the Haar measure of K makes immaterial). Otherwise
    each u_j is a Beta(b + 1, c) draw and a row is kept with probability
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
        M = (1.0 - rng.uniform(size=n)) ** (1.0 / (a + 2.0 * c))
        x = rng.beta(c, a + 1.0, size=n)
        return 1.0 - np.stack([M, M * x], axis=1)
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


def _polar_rows(alg: AlgebraDescriptor, t: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """z-chart rows of k . sum_j t_j c_j, one Haar k of the full K per row of
    t (n, r).

    Rank 1: K is transitive on each sphere of the ball. With Q a Haar frame
    stack from _orthonormal_rows: sym_real Z = Q^T diag(t) Q (u Z u^T,
    u in U(r)); herm_complex Z = U^T diag(t) V with V the first p rows of a
    unitary of U(q) (U Z V*); herm_quaternion A = Q^T D Q with
    D = J diag(t_j I_2), on the skew picture A = J H whose upper entries are
    the chart (u A u^T, u in U(2r)); spin e^(i theta) O, O in SO(m), in the
    unitary coordinates y with Delta = sum y^2 / 2 (u_0, u_1 =
    (y_0 +- i y_1) / sqrt 2, u_k = i y_k), where the frame sum is
    ((t_1 + t_2) e_0 - i (t_1 - t_2) e_1) / sqrt 2. Products run with the
    sample index last.
    """
    n, r = t.shape
    t = t.T

    def cgauss(*shape):
        return rng.standard_normal(size=shape + (2 * n,)).view(complex)

    if r == 1:
        G = cgauss(alg.zdim)
        return (t[0] * G / np.sqrt(np.sum((G * G.conj()).real, axis=0))).T
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
        U = _orthonormal_rows(cgauss(p, p))
        V = _orthonormal_rows(cgauss(p, alg.cols))
        Z = sum((U[j] * t[j])[:, None] * V[j][None] for j in range(p))
        return np.concatenate([Z[:, :p].reshape(p * p, n),
                               Z[:, p:].reshape(-1, n)]).T
    if alg.family == "sym_real":
        Q = _orthonormal_rows(cgauss(r, r))
        a, b = np.triu_indices(r)
        P = sum(t[j] * Q[j][a] * Q[j][b] for j in range(r))
        # chart coordinates of the symmetric matrix from its upper entries
        chart = eja._chart(alg)
        un = chart["unembed"]
        S = np.where((a == b)[:, None], un[a * r + b], un[a * r + b] + un[b * r + a])
        return P.T @ (S @ chart["to_z"])
    Q = _orthonormal_rows(cgauss(2 * r, 2 * r))
    a, b = np.triu_indices(2 * r, k=1)
    return sum(t[j] * (Q[2 * j][a] * Q[2 * j + 1][b]
                       - Q[2 * j + 1][a] * Q[2 * j][b]) for j in range(r)).T


def sample_weighted_bounded(alg: AlgebraDescriptor, lam: float, n: int,
                            rng: np.random.Generator):
    """n exact draws from c_lambda^(-1) h(z, z)^(lambda - g) dm (z-chart
    Lebesgue measure, c_lambda = bergman_constant) as z-chart rows
    (spaces.point_vector per row), and log h(z, z) of each.

    Polar coordinates z = k . sum_j t_j c_j: u = t^2 from _jacobi_ensemble,
    then k Haar in the full K (_polar_rows), and h(z, z) = prod_j (1 - u_j).
    At lambda = g the rows are uniform on D.
    """
    if lam <= alg.genus - 1:
        raise ValueError("the weighted volume diverges at or below genus - 1")
    u = _jacobi_ensemble(alg, lam, n, rng)
    return _polar_rows(alg, np.sqrt(u), rng), np.log1p(-u).sum(axis=1)


def cayley_rows(alg: AlgebraDescriptor, V: np.ndarray):
    """cayley on a stack of bounded z-chart rows: Siegel rows
    w = i (e + z)(e - z)^(-1) = 2i (e - z)^(-1) - ie, with
    omega = (e - z)^(-1) zeta for herm_complex(p, q > p), and
    log |det c'(z)|^2, the real Jacobian in z-chart coordinates.

    c'(z) is 2i P((e - z)^(-1)) on Z_1, of determinant
    (2i)^m Delta(e - z)^(-2m/r), times left multiplication by (e - z)^(-1)
    on the half-space block, of determinant Delta(e - z)^(-(q - p)). Since
    g = 2m/r + (q - p), |det c'(z)|^2 = 2^(2m) |Delta(e - z)|^(-2g) with
    m = dim_m.
    """
    m = alg.dim_m
    ez = eja.to_zchart(eja.identity(alg))
    X = -np.asarray(V, dtype=complex)
    X[:, :m] += ez
    A, det = _jordan_inverse_rows(alg, X)
    W = 2j * A - 1j * ez
    if alg.siegel_n:
        chart = eja._chart(alg)
        p = alg.size
        Am = (A @ chart["from_z"] @ chart["embed"]).reshape(-1, p, p)
        zeta = np.asarray(V)[:, m:].reshape(len(X), p, -1)
        W = np.concatenate([W, (Am @ zeta).reshape(len(X), -1)], axis=1)
    return W, 2.0 * m * math.log(2.0) - 2.0 * alg.genus * np.log(np.abs(det))


def siegel_log_delta_rows(alg: AlgebraDescriptor, W: np.ndarray) -> np.ndarray:
    """log Delta(Im w - Phi(omega, omega)) on a stack of interior Siegel
    z-chart rows (siegel_defect per row)."""
    chart = eja._chart(alg)
    m = alg.dim_m
    W = np.asarray(W, dtype=complex)
    Y = (W[:, :m] @ chart["from_z"]).imag
    if alg.siegel_n:
        om = W[:, m:].reshape(len(W), alg.size, -1)
        OO = om @ om.conj().transpose(0, 2, 1)
        Y = Y - (OO.reshape(len(W), -1) @ chart["unembed"]).real
    U = np.zeros((len(W), alg.zdim), dtype=complex)
    U[:, :m] = Y @ chart["to_z"]
    return np.log(cones.minor_polynomials(alg)[-1].eval(U).real)
