"""Fischer inner product, orbit spans under the isotropy group, and the
projections onto the signature spaces P_s.

Polynomials live over the full complex chart (dim_m + siegel_n variables,
the coordinates of BoundedPoint.as_vector). The Fischer pairing is
sum_alpha alpha! a_alpha conj(b_alpha), which matches both p(conj grad)q(0)
and the Gaussian integral, and makes distinct monomials orthogonal.

P_s is spanned by the orbit of Delta^s under the isotropy group K, and its
dimension has a closed form (dim_Ps). Its basis is built and kept as arrays
over the monomial table of degree |s|: for one stack of dim P_s + MARGIN
Haar samples k of the full K (domains.haar_K, one batched draw), every
factor Delta_j of Delta^s = prod_j Delta_j^(s_j - s_(j+1)) is composed
with the matrices of k (its monomials are products of rows of the matrix),
the powers and products are taken as dense stacks, and the rows are
Fischer-weighted, so Euclidean and Fischer geometry agree. The top dim P_s
rows of one SVD are the basis, and the numerical rank must equal dim P_s.
The bases of all signatures of one degree are then stacked in one array, so
the pairings against every P_s of that degree are one matrix-vector product
and a sum over each signature's rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import cones, domains, eja, wallach
from .eja import AlgebraDescriptor
from .poly import (SparsePolynomial, det_poly, graded_table, graded_vector,
                   monomial_factorial, monomial_table, mul_stacks)
from .poly import homogeneous_monomials  # noqa: F401  (part of this module's API)

RANK_TOL = 1e-8
# Haar samples beyond dim P_s per basis; with 8 the smallest kept singular
# value stays >= 6e-3 of the largest on every family tested (0 fell to 1.8e-4)
MARGIN = 8
SEED = 828131


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


# ---------------------------------------------------------------------------
# orbit spans and the P_s projections
# ---------------------------------------------------------------------------

def signature_factors(alg: AlgebraDescriptor,
                      s: Sequence[int]) -> List[Tuple[SparsePolynomial, int]]:
    """[(Delta_j, s_j - s_(j+1))] for a non-increasing integer s >= 0, so
    that Delta^s = prod_j Delta_j^(s_j - s_(j+1))."""
    exps = list(wallach._check_signature(s, alg.rank)) + [0]
    return [(m, exps[j] - exps[j + 1])
            for j, m in enumerate(cones.minor_polynomials(alg))]


def delta_power_poly(alg: AlgebraDescriptor, s: Sequence[int]) -> SparsePolynomial:
    """Delta^s as a chart polynomial (non-increasing integer s >= 0)."""
    out = SparsePolynomial.constant(alg.zdim, 1.0)
    for m, e in signature_factors(alg, s):
        if e:
            out = out * m ** e
    return out


def _homogeneous_degree(p: SparsePolynomial) -> int:
    degrees = {sum(a) for a in p.coeffs}
    if len(degrees) != 1:
        raise ValueError("orbit span factors must be nonzero homogeneous polynomials")
    return degrees.pop()


def _compose_factor(p: SparsePolynomial, lin: np.ndarray, d: int) -> np.ndarray:
    """Coefficient stack of p o M for every matrix M of the batch.

    lin[b, i] is row i of the b-th matrix as a degree-1 table vector, the
    linear form substituted for z_i; each monomial of p (degree d) is the
    product of d of them.
    """
    nvars, rows = p.nvars, lin.shape[0]
    if d == 0:
        return np.full((rows, 1), p.coeffs[(0,) * nvars])
    monos = list(p.coeffs)
    coeffs = np.array([p.coeffs[a] for a in monos])
    # the variables of each monomial, with multiplicity, one column per slot
    slots = np.array([[i for i, k in enumerate(a) for _ in range(k)] for a in monos])
    prod = lin[:, slots[:, 0]].reshape(-1, nvars)
    for j in range(1, d):
        prod = mul_stacks(prod, lin[:, slots[:, j]].reshape(-1, nvars), nvars, j, 1)
    return np.tensordot(prod.reshape(rows, len(monos), -1), coeffs, axes=([1], [0]))


def _composed_rows(factors: Sequence[Tuple[SparsePolynomial, int]],
                   mats: np.ndarray) -> np.ndarray:
    """Fischer-weighted coefficient rows of prod_j (p_j o M)^(e_j), one row
    per matrix M of the (B, n, n) stack, over the monomial table of the
    product's degree."""
    nvars = factors[0][0].nvars
    # the degree-1 table lists z_(n-1) first, so row i of M reversed is the
    # linear form sum_k M[i, k] z_k
    lin = mats[:, :, ::-1]
    out, deg = np.ones((len(mats), 1), dtype=complex), 0
    for p, e in factors:
        if not e:
            continue
        d = _homogeneous_degree(p)
        q = _compose_factor(p, lin, d)
        for _ in range(e):
            out = mul_stacks(out, q, nvars, deg, d)
            deg += d
    return out * monomial_table(nvars, deg).weights


def orbit_span(factors: Sequence[Tuple[SparsePolynomial, int]],
               samples: np.ndarray,
               dim: int) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Orthonormal basis of the span of {g o k}, g = prod_j p_j^(e_j), over
    the (B, n, n) stack of chart matrices k (domains.haar_K), whose
    dimension is dim, and the singular gap (sv_dim, sv_(dim+1)) / sv_1.

    factors are the (p_j, e_j), each p_j a nonzero homogeneous polynomial.
    The basis comes back as orthonormal rows of Fischer-weighted coefficients
    over the monomial table of the degree of g (poly.monomial_table), so the
    Fischer pairing of two basis elements is the dot product of their rows.
    A numerical rank other than dim raises with the singular values.
    """
    if not len(samples):
        raise ValueError("need at least one isotropy sample")
    factors = [(p, int(e)) for p, e in factors]
    if sum(_homogeneous_degree(p) * e for p, e in factors) == 0:
        return np.ones((1, 1)), (1.0, 0.0)
    A = _composed_rows(factors, np.asarray(samples))
    _, sv, Vh = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    if rank != dim:
        raise RuntimeError(f"orbit rank {rank} is not dim {dim}; "
                           f"singular values {np.array2string(sv, precision=3)}")
    gap = (float(sv[dim - 1] / sv[0]),
           float(sv[dim] / sv[0]) if dim < len(sv) else 0.0)
    return Vh[:dim].copy(), gap  # a view would keep all of Vh alive


class SpanRecord(NamedTuple):
    """How one P_s basis was built: Haar samples and singular gap."""
    samples: int
    sv_dim: float   # sv_dim / sv_1, the smallest kept singular value
    sv_next: float  # sv_(dim+1) / sv_1, the largest dropped one


class PsProjector:
    """Caches P_s bases for one algebra; deterministic seeding per signature.

    A basis is kept as the orthonormal rows of orbit_span: Fischer-weighted
    coefficients over the monomial table of degree |s|. spans[s] records how
    the basis of s was built. stack(d) concatenates the bases of degree d,
    after which each of them is a view into the stack.
    """

    def __init__(self, alg: AlgebraDescriptor):
        self.alg = alg
        self._bases: Dict[Tuple[int, ...], np.ndarray] = {}
        self._stacks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.spans: Dict[Tuple[int, ...], SpanRecord] = {}

    def _rng_for(self, s: Tuple[int, ...]) -> np.random.Generator:
        material = [SEED, self.alg.rank, self.alg.dim_m,
                    self.alg.siegel_n, self.alg.genus] + list(s)
        return np.random.default_rng(np.random.SeedSequence(material))

    def basis(self, s: Sequence[int]) -> np.ndarray:
        """Orthonormal rows spanning P_s (one row per basis polynomial)."""
        s = tuple(int(v) for v in s)
        if s not in self._bases:
            dim = self.dim(s)
            rng = self._rng_for(s)
            samples = domains.haar_K(self.alg, dim + MARGIN, rng)
            rows, gap = orbit_span(signature_factors(self.alg, s), samples, dim)
            self._bases[s] = rows
            self.spans[s] = SpanRecord(len(samples), *gap)
        return self._bases[s]

    def stack(self, d: int) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of every P_s with |s| = d, in wallach.graded_signatures
        order, and the first row of each s."""
        if d not in self._stacks:
            sigs, offsets = wallach.graded_signatures(self.alg.rank, d)
            sigs = [tuple(s) for s in sigs[offsets[d]:].tolist()]
            rows = np.concatenate([self.basis(s) for s in sigs])
            starts = np.cumsum([0] + [len(self._bases[s]) for s in sigs[:-1]])
            for s, a in zip(sigs, starts):
                self._bases[s] = rows[a:a + len(self._bases[s])]
            self._stacks[d] = rows, starts
        return self._stacks[d]

    def dim(self, s: Sequence[int]) -> int:
        return dim_Ps(s, self.alg)

    def project(self, f: SparsePolynomial, s: Sequence[int]) -> SparsePolynomial:
        s = tuple(int(v) for v in s)
        nv = self.alg.zdim
        if f.nvars != nv:
            raise ValueError("polynomial lives on the wrong chart")
        if self.alg.rank == 1:
            # P_(k) is the full homogeneous component of degree k
            return f.homogeneous_part(s[0])
        d = sum(s)
        v = graded_vector(f, d)[graded_table(nv, d)[0][d]:]
        if not v.any():
            return SparsePolynomial.zero(nv)
        rows = self.basis(s)
        return monomial_table(nv, d).polynomial((rows.conj() @ v) @ rows)


_PROJECTORS: Dict[AlgebraDescriptor, PsProjector] = {}


def projector(alg: AlgebraDescriptor) -> PsProjector:
    if alg not in _PROJECTORS:
        _PROJECTORS[alg] = PsProjector(alg)
    return _PROJECTORS[alg]


def dim_Ps(s: Sequence[int], alg: AlgebraDescriptor) -> int:
    """dim P_s in closed form (Faraut-Koranyi 1990; Upmeier).

    herm_complex(p, q), the ball included, is M_(p x q) under U(p) x U(q),
    so d_s is the product of the U(p) and U(q) Weyl dimensions of s padded
    with zeros. Every other family is a tube with Peirce multiplicity a:
    d_s = prod_(i<j) (s_i - s_j + a(j-i)/2) / (a(j-i)/2)
          * (a(j-i+1)/2)_(s_i-s_j) / (1 + a(j-i-1)/2)_(s_i-s_j).
    """
    s = wallach._check_signature(s, alg.rank)
    if alg.family == "herm_complex":
        out = Fraction(1)
        for n in (alg.size, alg.cols):
            lam = s + (0,) * (n - alg.rank)
            out *= prod(Fraction(lam[i] - lam[j] + j - i, j - i)
                        for i, j in combinations(range(n), 2))
        return int(out)
    half = Fraction(alg.peirce_a, 2)
    out = Fraction(1)
    for i, j in combinations(range(alg.rank), 2):
        k, h = s[i] - s[j], half * (j - i)
        out *= (k + h) / h * prod((h + half + t) / (1 + h - half + t) for t in range(k))
    return int(out)


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
    return out
