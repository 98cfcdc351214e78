"""Fischer inner product, Haar sampling on the isotropy group, orbit spans,
and the projections onto the signature spaces P_s.

Polynomials live over the full complex chart (dim_m + siegel_n variables,
the coordinates of BoundedPoint.as_vector). The Fischer pairing is
sum_alpha alpha! a_alpha conj(b_alpha), which matches both p(conj grad)q(0)
and the Gaussian integral, and makes distinct monomials orthogonal.

P_s bases come from randomized orbit spans: compose the generator Delta^s
with Haar samples of the isotropy action, represent the results as
factorial-weighted coefficient vectors (so Euclidean and Fischer geometry
agree), and read an orthonormal basis off the SVD once the rank has been
stable for three consecutive batches of 32 samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from . import cones, domains, eja
from .eja import AlgebraDescriptor
from .poly import SparsePolynomial, det_poly, monomial_factorial

RANK_TOL = 1e-8
BATCH = 32
STABLE_BATCHES = 3
MAX_BATCHES = 60


# ---------------------------------------------------------------------------
# Fischer pairing
# ---------------------------------------------------------------------------

def fischer_inner(p: SparsePolynomial, q: SparsePolynomial) -> complex:
    """sum over monomials of alpha! p_alpha conj(q_alpha)."""
    if p.nvars != q.nvars:
        raise ValueError("mismatched ambient dimensions")
    small = p.coeffs if len(p.coeffs) <= len(q.coeffs) else q.coeffs
    out = 0.0 + 0.0j
    for alpha in small:
        a = p.coeffs.get(alpha)
        b = q.coeffs.get(alpha)
        if a is None or b is None:
            continue
        out += monomial_factorial(alpha) * a * np.conj(b)
    return complex(out)


def fischer_norm(p: SparsePolynomial) -> float:
    return float(np.sqrt(max(fischer_inner(p, p).real, 0.0)))


def homogeneous_monomials(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographic."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars - 1:
            out.append(tuple(prefix) + (left,))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], degree)
    out.sort()
    return out


def _weighted_vector(p: SparsePolynomial, index: Dict[Tuple[int, ...], int],
                     weights: np.ndarray) -> np.ndarray:
    v = np.zeros(len(index), dtype=complex)
    for alpha, c in p.coeffs.items():
        v[index[alpha]] = c
    return v * weights


def _vector_to_poly(nvars, monos, weights, v) -> SparsePolynomial:
    p = SparsePolynomial.zero(nvars)
    for alpha, w, c in zip(monos, weights, v):
        if abs(c) > 1e-14:
            p.coeffs[alpha] = c / w
    return p


# ---------------------------------------------------------------------------
# Haar samples of the isotropy action
# ---------------------------------------------------------------------------

@dataclass
class KSample:
    """Complex-linear triple automorphism of Z in the chart coordinates."""
    alg: AlgebraDescriptor
    matrix: np.ndarray


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q @ np.diag(np.sign(np.diag(R)))


def _haar_symplectic_unitary(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar element of U(2p) with the quaternionic block structure.

    Gram-Schmidt over the quaternions in the complex embedding: 2x2 blocks
    are quaternions, inner products of block columns are again quaternions,
    and the squared norm of a block column is a real multiple of I_2.
    """
    n = 2 * p
    X = np.zeros((n, n), dtype=complex)
    for i in range(p):
        for j in range(p):
            q = rng.normal(size=4)
            X[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = sum(
                q[k] * eja._QUNITS[k] for k in range(4))
    Q = np.zeros((n, n), dtype=complex)
    for j in range(p):
        v = X[:, 2 * j: 2 * j + 2].copy()
        for k in range(j):
            u = Q[:, 2 * k: 2 * k + 2]
            v -= u @ (u.conj().T @ v)
        nrm = np.sqrt(np.trace(v.conj().T @ v).real / 2.0)
        Q[:, 2 * j: 2 * j + 2] = v / nrm
    return Q


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


def identity_K(alg: AlgebraDescriptor) -> KSample:
    return KSample(alg, np.eye(alg.dim_m + alg.siegel_n, dtype=complex))


def haar_sample_K(alg: AlgebraDescriptor, rng: np.random.Generator) -> KSample:
    """One Haar sample of the stabilizer of 0 acting on the chart."""
    d = alg.dim_m + alg.siegel_n
    if alg.family == "herm_complex":
        u = _haar_unitary(alg.size, rng)
        v = _haar_unitary(alg.cols, rng)

        def act(vec):
            Z = np.concatenate(
                [vec[: alg.dim_m].reshape(alg.size, alg.size),
                 vec[alg.dim_m:].reshape(alg.size, alg.cols - alg.size)], axis=1)
            out = u @ Z @ v.conj().T
            return np.concatenate([out[:, : alg.size].ravel(),
                                   out[:, alg.size:].ravel()])
    elif alg.family == "sym_real":
        u = _haar_orthogonal(alg.size, rng)
        ph = np.exp(1j * rng.uniform(0.0, 2 * np.pi))

        def act(vec):
            Z = eja.embed_matrix(eja.from_zchart(alg, vec))
            return eja.to_zchart(eja.unembed_matrix(alg, ph * (u @ Z @ u.T)))
    elif alg.family == "herm_quaternion":
        u = _haar_symplectic_unitary(alg.size, rng)
        ph = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        iu = np.triu_indices(2 * alg.size, k=1)

        def act(vec):
            # chart coordinates are the upper entries of the skew picture;
            # the quaternionic conjugation H -> u H u* reads conj(u) S u*
            S = np.zeros((2 * alg.size, 2 * alg.size), dtype=complex)
            S[iu] = vec
            S = S - S.T
            S2 = ph * (np.conj(u) @ S @ u.conj().T)
            return S2[iu]
    elif alg.family == "spin":
        lam = _spin_lambda(alg.dim_m)
        R = _haar_orthogonal(alg.dim_m, rng)
        ph = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        return KSample(alg, np.linalg.solve(lam, ph * R @ lam))
    else:
        raise ValueError(f"unsupported family: {alg.family}")
    cols = []
    for k in range(d):
        e = np.zeros(d, dtype=complex)
        e[k] = 1.0
        cols.append(act(e))
    return KSample(alg, np.column_stack(cols))


def k_apply(k: KSample, p: "domains.BoundedPoint") -> "domains.BoundedPoint":
    return domains.bounded_from_vector(k.alg, k.matrix @ p.as_vector())


# ---------------------------------------------------------------------------
# orbit spans and the P_s projections
# ---------------------------------------------------------------------------

def delta_power_poly(alg: AlgebraDescriptor, s: Sequence[int]) -> SparsePolynomial:
    """Delta^s as a chart polynomial (non-increasing integer s >= 0)."""
    s = tuple(int(v) for v in s)
    if len(s) != alg.rank or any(v < 0 for v in s) or any(
            s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise ValueError("need a non-increasing non-negative signature")
    minors = cones.minor_polynomials(alg)
    nv = alg.dim_m + alg.siegel_n
    out = SparsePolynomial.constant(nv, 1.0)
    exps = list(s) + [0]
    for j in range(alg.rank):
        e = exps[j] - exps[j + 1]
        if e:
            out = out * minors[j] ** e
    return out


def orbit_span(generator: SparsePolynomial, samples: Iterable[KSample],
               rank_tol: float = RANK_TOL, batch: int = BATCH,
               stable_batches: int = STABLE_BATCHES,
               max_batches: int = MAX_BATCHES) -> List[SparsePolynomial]:
    """Fischer-orthonormal basis of the span of {generator o k}.

    Consumes samples in batches; stops once the numerical rank has been
    unchanged for three consecutive batches. Running out of samples or
    batches first raises with the last observed ranks.
    """
    it = iter(samples)
    first = next(it, None)
    if first is None:
        raise ValueError("need at least one isotropy sample")
    it = itertools.chain([first], it)
    d = generator.degree()
    if d < 0:
        return []
    if d == 0:
        return [SparsePolynomial.constant(generator.nvars, 1.0)]
    nvars = generator.nvars
    monos = homogeneous_monomials(nvars, d)
    index = {m: i for i, m in enumerate(monos)}
    weights = np.sqrt(np.array([monomial_factorial(m) for m in monos]))
    rows = [_weighted_vector(generator, index, weights)]
    ranks: List[int] = []
    for _ in range(max_batches):
        got = list(itertools.islice(it, batch))
        if not got:
            break
        for k in got:
            rows.append(_weighted_vector(
                generator.compose_linear(k.matrix), index, weights))
        A = np.vstack(rows)
        sv = np.linalg.svd(A, compute_uv=False)
        rank = int(np.sum(sv > rank_tol * sv[0]))
        ranks.append(rank)
        if len(ranks) >= stable_batches and len(set(ranks[-stable_batches:])) == 1:
            _, _, Vh = np.linalg.svd(A, full_matrices=False)
            return [_vector_to_poly(nvars, monos, weights, Vh[i])
                    for i in range(rank)]
    raise RuntimeError(f"orbit rank did not stabilize; last ranks {ranks[-2:]}")


def _haar_stream(alg: AlgebraDescriptor,
                 rng: np.random.Generator) -> Iterator[KSample]:
    while True:
        yield haar_sample_K(alg, rng)


class PsProjector:
    """Caches P_s bases for one algebra; deterministic seeding per signature."""

    def __init__(self, alg: AlgebraDescriptor, seed: int = 828131):
        self.alg = alg
        self.seed = seed
        self._bases: Dict[Tuple[int, ...], List[SparsePolynomial]] = {}

    def _rng_for(self, s: Tuple[int, ...]) -> np.random.Generator:
        material = [self.seed, self.alg.rank, self.alg.dim_m,
                    self.alg.siegel_n, self.alg.genus] + list(s)
        return np.random.default_rng(np.random.SeedSequence(material))

    def basis(self, s: Sequence[int]) -> List[SparsePolynomial]:
        s = tuple(int(v) for v in s)
        if s not in self._bases:
            gen = delta_power_poly(self.alg, s)
            self._bases[s] = orbit_span(gen, _haar_stream(self.alg, self._rng_for(s)))
        return self._bases[s]

    def dim(self, s: Sequence[int]) -> int:
        return len(self.basis(s))

    def project(self, f: SparsePolynomial, s: Sequence[int]) -> SparsePolynomial:
        s = tuple(int(v) for v in s)
        nv = self.alg.dim_m + self.alg.siegel_n
        if f.nvars != nv:
            raise ValueError("polynomial lives on the wrong chart")
        if self.alg.rank == 1:
            # P_(k) is the full homogeneous component of degree k
            return f.homogeneous_part(s[0])
        out = SparsePolynomial.zero(nv)
        for b in self.basis(s):
            c = fischer_inner(f, b)
            if abs(c) > 1e-15:
                out = out + c * b
        return out


_PROJECTORS: Dict[AlgebraDescriptor, PsProjector] = {}


def projector(alg: AlgebraDescriptor) -> PsProjector:
    if alg not in _PROJECTORS:
        _PROJECTORS[alg] = PsProjector(alg)
    return _PROJECTORS[alg]


def project_Ps(f: SparsePolynomial, s: Sequence[int],
               cache: PsProjector) -> SparsePolynomial:
    return cache.project(f, s)


def dim_Ps(s: Sequence[int], alg: AlgebraDescriptor) -> int:
    return projector(alg).dim(s)


def dim_Ps_rank1(alg: AlgebraDescriptor, k: int) -> int:
    """Monomial count: homogeneous degree k on a rank-1 chart."""
    d = alg.dim_m + alg.siegel_n
    return comb(d + k - 1, k)


# ---------------------------------------------------------------------------
# kernel Taylor expansion
# ---------------------------------------------------------------------------

def _h_polynomial(alg: AlgebraDescriptor, w: "domains.BoundedPoint"):
    """(polynomial in z for fixed w, scale): kernel = poly^(-lambda/scale)."""
    nv = alg.dim_m + alg.siegel_n
    if alg.family == "spin":
        wch = eja.to_zchart(w.z1.as_complex())
        h = SparsePolynomial.constant(nv, 1.0)
        for k in range(nv):
            if wch[k] != 0:
                h = h - np.conj(wch[k]) * SparsePolynomial.variable(nv, k)
        d2w = wch[0] * wch[1] - 0.5 * np.sum(wch[2:] ** 2)
        h = h + np.conj(d2w) * cones.minor_polynomials(alg)[1]
        return h, 1.0
    E = cones._entry_polys(alg)
    n, q = len(E), len(E[0])
    if alg.family == "herm_quaternion":
        # skew picture, h(z, w)^2 = det(I - S_z S_w^*)
        Wn = eja.skew_embed(w.z1.as_complex()).conj().T
    else:
        Wn = w.full_matrix().conj().T
    ent = [[SparsePolynomial.constant(nv, 1.0 if i == j else 0.0)
            - sum((E[i][k] * Wn[k, j] for k in range(q) if Wn[k, j] != 0),
                  SparsePolynomial.zero(nv))
            for j in range(n)] for i in range(n)]
    return det_poly(ent), float(eja._block_size(alg))


def kernel_taylor(lam: float, w: "domains.BoundedPoint",
                  max_degree: int) -> SparsePolynomial:
    """Taylor polynomial at 0 of z -> kernel_bounded(lam, z, w).

    Exact truncated series composition: h(., w) is a chart polynomial with
    constant term 1, and (1 - u)^(-alpha) with u = 1 - h is expanded term
    by term. No numeric differentiation anywhere.
    """
    alg = w.alg
    if not domains.in_bounded_domain(w, tol=0.0):
        raise ValueError("expansion point is outside the bounded domain")
    nv = alg.dim_m + alg.siegel_n
    if lam == 0.0 or max_degree == 0:
        return SparsePolynomial.constant(nv, 1.0)
    h, scale = _h_polynomial(alg, w)
    alpha = lam / scale
    u = (SparsePolynomial.constant(nv, 1.0) - h).truncate(max_degree)
    out = SparsePolynomial.constant(nv, 1.0)
    upow = SparsePolynomial.constant(nv, 1.0)
    coef = 1.0
    for k in range(1, max_degree + 1):
        upow = (upow * u).truncate(max_degree)
        coef *= (alpha + k - 1) / k
        if not upow.coeffs:
            break
        out = out + coef * upow
    return out.cleanup()
