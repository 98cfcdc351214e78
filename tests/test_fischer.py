"""Fischer pairing, isotropy sampling, orbit spans, P_s projections,
and kernel Taylor expansions."""

import dataclasses
from math import comb

import numpy as np
import pytest

from symcone import cones, domains, eja, fischer, wallach
from symcone.poly import SparsePolynomial, monomial_table, weighted_parts

RNG = np.random.default_rng(20240815)

BALL2 = eja.herm_complex(1, 2)
SR2 = eja.sym_real(2)
SP4 = eja.spin_factor(4)
HQ2 = eja.herm_quaternion(2)
HC23 = eja.herm_complex(2, 3)


def rand_bounded(alg, radius, rng=RNG):
    d = alg.dim_m + alg.siegel_n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    p = domains.bounded_from_vector(alg, v)
    return domains.bounded_from_vector(alg, v * (radius / domains.spectral_norm(p)))


def rand_poly(nv, deg, rng=RNG, density=0.4):
    p = SparsePolynomial.zero(nv)
    for d in range(deg + 1):
        for alpha in fischer.homogeneous_monomials(nv, d):
            if rng.uniform() < density:
                p.coeffs[alpha] = rng.normal() + 1j * rng.normal()
    if not p.coeffs:
        p.coeffs[(0,) * nv] = 1.0
    return p


# ---------------------------------------------------------------------------
# polynomial plumbing
# ---------------------------------------------------------------------------

def test_poly_eval_square():
    p = SparsePolynomial.variable(2, 0) ** 2
    assert p.eval(np.array([2.0, 5.0])) == pytest.approx(4.0)


def test_poly_compose_identity():
    p = rand_poly(3, 3)
    q = p.compose_linear(np.eye(3))
    assert fischer.fischer_norm(q - p) < 1e-12


def test_poly_compose_scaling():
    p = SparsePolynomial.variable(2, 0) ** 2
    q = p.compose_linear(2.0 * np.eye(2))
    assert q.coeffs == {(2, 0): pytest.approx(4.0)}


# ---------------------------------------------------------------------------
# Fischer inner product
# ---------------------------------------------------------------------------

def test_fischer_constants():
    one = SparsePolynomial.constant(1, 1.0)
    assert fischer.fischer_inner(one, one) == pytest.approx(1.0)


def test_fischer_square_monomial():
    z = SparsePolynomial.variable(1, 0)
    assert fischer.fischer_inner(z ** 2, z ** 2) == pytest.approx(2.0)


def test_fischer_mixed_monomial():
    p = SparsePolynomial.variable(2, 0) * SparsePolynomial.variable(2, 1)
    assert fischer.fischer_inner(p, p) == pytest.approx(1.0)


def test_fischer_monomials_orthogonal():
    z0 = SparsePolynomial.variable(2, 0)
    z1 = SparsePolynomial.variable(2, 1)
    assert fischer.fischer_inner(z0 ** 2, z0 * z1) == 0.0


def test_fischer_dimension_mismatch():
    with pytest.raises(ValueError):
        fischer.fischer_inner(SparsePolynomial.variable(2, 0),
                              SparsePolynomial.variable(3, 0))


def test_fischer_gaussian_monte_carlo():
    # the pairing equals the Fock-space integral against the standard
    # complex Gaussian; 20 random degree-<=4 pairs, 3 standard errors
    rng = np.random.default_rng(991)
    n, N = 2, 1_000_000
    Z = (rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n))) / np.sqrt(2.0)
    for _ in range(20):
        p = rand_poly(n, 4, rng)
        q = rand_poly(n, 4, rng)
        vals = p.eval(Z) * np.conj(q.eval(Z))
        mc = np.mean(vals)
        se = np.std(vals) / np.sqrt(N)
        exact = fischer.fischer_inner(p, q)
        assert abs(mc - exact) < 3.0 * max(se.real, 1e-12)


# ---------------------------------------------------------------------------
# Haar samples of K
# ---------------------------------------------------------------------------

ALGS = [BALL2, HC23, SR2, eja.sym_real(3), HQ2, SP4, eja.spin_factor(5)]


def k_apply(k, p):
    """The point k . p for a chart matrix k of domains.haar_K."""
    return domains.bounded_from_vector(p.alg, k @ p.as_vector())


def test_identity_is_valid_sample():
    # the identity chart matrix as the only sample: the span is g's own
    # line, the unit multiple of g's Fischer-weighted coefficients
    for alg in ALGS:
        s = (2,) + (1,) * (alg.rank - 1)
        g = fischer.delta_power_poly(alg, s)
        rows, _ = fischer.orbit_span(fischer.signature_factors(alg, s),
                                     np.eye(alg.zdim, dtype=complex)[None], 1)
        want = weighted_parts(g, sum(s))[sum(s)]
        want = want / np.linalg.norm(want)
        assert abs(abs(np.vdot(rows[0], want)) - 1.0) < 1e-12, alg


def test_haar_chart_unitary():
    for alg in ALGS:
        for M in domains.haar_K(alg, 4, RNG):
            assert np.linalg.norm(M.conj().T @ M - np.eye(M.shape[0])) < 1e-12


def test_haar_preserves_spectral_norm():
    for alg in ALGS:
        k = domains.haar_K(alg, 1, RNG)[0]
        for _ in range(100 // len(ALGS) + 1):
            p = rand_bounded(alg, RNG.uniform(0.2, 0.95))
            q = k_apply(k, p)
            assert abs(domains.spectral_norm(p) - domains.spectral_norm(q)) < 1e-10


def _chart_of_full(alg, M):
    if alg.family == "herm_complex":
        z1 = eja.unembed_matrix(alg, M[:, : alg.size])
        vec = eja.to_zchart(z1)
        if alg.siegel_n:
            vec = np.concatenate([vec, M[:, alg.size:].ravel()])
        return vec
    return eja.to_zchart(eja.unembed_matrix(alg, M))


def test_haar_preserves_triple_product():
    for alg in ALGS:
        k = domains.haar_K(alg, 1, RNG)[0]
        d = alg.dim_m + alg.siegel_n
        for _ in range(3):
            vs = [RNG.normal(size=d) + 1j * RNG.normal(size=d) for _ in range(3)]
            ps = [domains.bounded_from_vector(alg, v) for v in vs]
            ks = [k_apply(k, p) for p in ps]
            if alg.siegel_n:
                T1 = eja.triple_product_full(alg, *[p.full_matrix() for p in ps])
                T2 = eja.triple_product_full(alg, *[p.full_matrix() for p in ks])
                v1, v2 = _chart_of_full(alg, T1), _chart_of_full(alg, T2)
            else:
                T1 = eja.triple_product(ps[0].z1, ps[1].z1, ps[2].z1)
                T2 = eja.triple_product(ks[0].z1, ks[1].z1, ks[2].z1)
                v1 = eja.to_zchart(T1.as_complex())
                v2 = eja.to_zchart(T2.as_complex())
            assert np.linalg.norm(k @ v1 - v2) < 1e-9


def test_haar_entry_mean_vanishes():
    # Haar symmetry: E[k] = 0 since the phase subgroup averages to zero
    rng = np.random.default_rng(313)
    N = 10_000
    M = domains.haar_K(BALL2, N, rng)
    mean = M.mean(axis=0)
    std = np.sqrt(np.maximum((np.abs(M) ** 2).mean(axis=0) - np.abs(mean) ** 2, 0.0))
    assert np.all(np.abs(mean) < 3.0 * std / np.sqrt(N))


def test_haar_K_is_the_full_group():
    # Z = k . c_1 on sym_real(2): under the full K = U(2), Z_11 = u_11^2 and
    # |u_11|^2 is uniform, so E|Z_11|^2 = 1/3; O(2) U(1) would give 3/8, 20
    # standard errors away at 20 000 draws. On herm_quaternion(2), every
    # E|Z_k|^2 against the polar draws k . c_1 of the same full K
    n = 20_000
    rng = np.random.default_rng(317)
    c1 = eja.to_zchart(eja.standard_frame(SR2)[0])
    x = np.abs(domains.haar_K(SR2, n, rng) @ c1)[:, 0] ** 2
    assert abs(x.mean() - 1.0 / 3.0) <= 5 * x.std() / np.sqrt(n)
    c1 = eja.to_zchart(eja.standard_frame(HQ2)[0])
    x = np.abs(domains.haar_K(HQ2, n, rng) @ c1) ** 2
    t = np.zeros((n, HQ2.rank))
    t[:, 0] = 1.0
    y = np.abs(domains._polar_rows(HQ2, t, rng)) ** 2
    se = np.sqrt((x.var(axis=0) + y.var(axis=0)) / n)
    assert np.all(np.abs(x.mean(axis=0) - y.mean(axis=0)) <= 5 * se)


def test_haar_rejects_unknown_family():
    bad = dataclasses.replace(BALL2, family="octonion")
    with pytest.raises(ValueError):
        domains.haar_K(bad, 1, RNG)


def test_fischer_k_invariance():
    for alg in [BALL2, SR2, SP4, HQ2]:
        nv = alg.dim_m + alg.siegel_n
        p = rand_poly(nv, 3)
        q = rand_poly(nv, 3)
        base = fischer.fischer_inner(p, q)
        for k in domains.haar_K(alg, 4, RNG):
            moved = fischer.fischer_inner(p.compose_linear(k), q.compose_linear(k))
            assert abs(moved - base) < 1e-9 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# orbit spans
# ---------------------------------------------------------------------------

def _samples(alg, seed, n=400):
    return domains.haar_K(alg, n, np.random.default_rng(seed))


def test_orbit_span_ball_linear():
    rows, _ = fischer.orbit_span([(SparsePolynomial.variable(2, 0), 1)],
                                 _samples(BALL2, 1), 2)
    assert len(rows) == 2


def test_orbit_span_constant():
    rows, _ = fischer.orbit_span([(SparsePolynomial.constant(2, 3.0), 1)],
                                 _samples(BALL2, 2), 1)
    assert rows.shape == (1, 1)
    assert rows[0, 0] == pytest.approx(1.0)


def test_orbit_span_determinant_line():
    # Delta_2 spans a one-dimensional space: K moves it by a character
    rows, _ = fischer.orbit_span(fischer.signature_factors(SR2, (1, 1)),
                                 _samples(SR2, 3), 1)
    assert len(rows) == 1


def test_orbit_span_needs_samples():
    with pytest.raises(ValueError):
        fischer.orbit_span([(SparsePolynomial.variable(2, 0), 1)],
                           np.zeros((0, 2, 2), dtype=complex), 2)


def test_orbit_span_reports_rank_on_failure():
    # dim P_(2,0) on sym_real(2) is 5; a wrong dim raises with the spectrum
    factors = fischer.signature_factors(SR2, (2, 0))
    for dim in (4, 6):
        with pytest.raises(RuntimeError, match="orbit rank 5 is not dim .*singular values"):
            fischer.orbit_span(factors, _samples(SR2, 4, n=16), dim)


def test_orbit_basis_is_orthonormal():
    s = (2, 1)
    rows, _ = fischer.orbit_span(fischer.signature_factors(SR2, s), _samples(SR2, 5),
                                 fischer.dim_Ps(s, SR2))
    assert np.linalg.norm(rows @ rows.conj().T - np.eye(len(rows))) < 1e-10


COMPOSED_FAMILIES = [
    (SR2, 6), (eja.sym_real(3), 4), (eja.herm_complex(2, 2), 5), (HC23, 4),
    (HQ2, 4), (SP4, 6), (eja.spin_factor(5), 5),
]


@pytest.mark.parametrize("alg,top", COMPOSED_FAMILIES, ids=str)
def test_composed_rows_match_compose_linear(alg, top):
    # the dense batch route against the dictionary route, row by row
    rng = np.random.default_rng(61)
    mats = domains.haar_K(alg, 3, rng)
    for s in wallach.enumerate_signatures(alg.rank, top):
        rows = fischer._composed_rows(fischer.signature_factors(alg, s), mats)
        table = monomial_table(alg.zdim, sum(s))
        gen = fischer.delta_power_poly(alg, s)
        for k, row in zip(mats, rows):
            moved = gen.compose_linear(k)
            want = np.array([moved.coeffs.get(a, 0.0) for a in table.monos]) * table.weights
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("alg,top", COMPOSED_FAMILIES, ids=str)
def test_projector_bases_have_closed_form_dim(alg, top):
    # one SVD of dim + MARGIN samples per basis, orthonormal rows, a clear gap
    P = fischer.projector(alg)
    for s in wallach.enumerate_signatures(alg.rank, top):
        rows = P.basis(s)
        dim = fischer.dim_Ps(s, alg)
        assert len(rows) == dim
        assert np.linalg.norm(rows @ rows.conj().T - np.eye(dim)) < 1e-10
        span = P.spans[s]
        assert span.samples == dim + fischer.MARGIN
        assert span.sv_next < fischer.RANK_TOL < span.sv_dim


# ---------------------------------------------------------------------------
# P_s dimensions and projections
# ---------------------------------------------------------------------------

def test_dim_ball_monomial_count():
    for alg in [BALL2, eja.herm_complex(1, 3)]:
        n = alg.dim_m + alg.siegel_n
        for k in range(5):
            assert fischer.dim_Ps((k,), alg) == comb(n + k - 1, k)


def test_dim_zero_signature():
    for alg in [BALL2, SR2, SP4, HQ2]:
        assert fischer.dim_Ps((0,) * alg.rank, alg) == 1


@pytest.mark.parametrize("alg,top", [
    (eja.sym_real(1), 8), (SR2, 8), (eja.sym_real(3), 4), (eja.herm_complex(2, 2), 8),
    (HC23, 8), (eja.herm_complex(3, 3), 4), (BALL2, 8), (HQ2, 8),
    (eja.herm_quaternion(3), 4), (SP4, 8), (eja.spin_factor(5), 8),
    (eja.spin_factor(7), 8),
], ids=str)
def test_dim_schmid_decomposition(alg, top):
    # the P_s of degree d split the homogeneous polynomials of degree d
    n = alg.zdim
    for d in range(top + 1):
        dims = [fischer.dim_Ps(s, alg)
                for s in wallach.enumerate_signatures(alg.rank, d) if sum(s) == d]
        assert sum(dims) == comb(n + d - 1, d)


def test_dim_bookkeeping_symreal2():
    # sum of P_s dimensions over |s| <= 2 fills the degree-<=2 space
    dims = {s: fischer.dim_Ps(s, SR2)
            for s in wallach.enumerate_signatures(2, 2)}
    assert dims[(2, 0)] == 5
    assert sum(dims.values()) == 1 + 3 + 6


def test_dim_spin_shells():
    # harmonic shells times powers of the quadric: (k - l + 1)^2 for m = 4
    for (k, l), want in [((1, 0), 4), ((2, 0), 9), ((2, 1), 4), ((1, 1), 1)]:
        assert fischer.dim_Ps((k, l), SP4) == want


def test_dim_quaternion_linear():
    assert fischer.dim_Ps((1, 0), HQ2) == HQ2.dim_m


def test_project_rank1_homogeneous():
    P = fischer.projector(BALL2)
    f = SparsePolynomial.constant(2, 1.0) + SparsePolynomial.variable(2, 0)
    out = P.project(f, (1,))
    assert out.coeffs == {(1, 0): pytest.approx(1.0)}


def test_project_fixes_generator():
    P = fischer.projector(SR2)
    for s in [(2, 1), (3, 0)]:
        gen = fischer.delta_power_poly(SR2, s)
        out = P.project(gen, s)
        assert fischer.fischer_norm(out - gen) < 1e-8 * fischer.fischer_norm(gen)


def test_project_wrong_chart_rejected():
    with pytest.raises(ValueError):
        fischer.projector(SR2).project(SparsePolynomial.variable(5, 0), (1, 0))


@pytest.mark.parametrize("alg", [BALL2, SR2, SP4], ids=str)
def test_projector_suite(alg):
    # idempotence, mutual orthogonality, completeness on degree <= 6
    P = fischer.projector(alg)
    nv = alg.dim_m + alg.siegel_n
    rng = np.random.default_rng(77)
    sigs = wallach.enumerate_signatures(alg.rank, 6)
    f = rand_poly(nv, 6, rng)
    scale = fischer.fischer_norm(f)
    pieces = {s: P.project(f, s) for s in sigs}
    total = SparsePolynomial.zero(nv)
    for s, piece in pieces.items():
        total = total + piece
        again = P.project(piece, s)
        assert fischer.fischer_norm(again - piece) < 1e-8 * scale
    assert fischer.fischer_norm(total - f) < 1e-8 * scale
    for s, piece in pieces.items():
        for s2 in sigs:
            if s2 != s and sum(s2) == sum(s):
                assert fischer.fischer_norm(P.project(piece, s2)) < 1e-8 * scale


# ---------------------------------------------------------------------------
# kernel Taylor expansions
# ---------------------------------------------------------------------------

def test_kernel_taylor_disc_binomial():
    # every coefficient (lam)_k conj(w)^k / k!, down to 3e-21 of the constant
    # term at degree 60
    alg = eja.herm_complex(1, 1)
    for wv, lam, top in ((0.3 + 0.2j, 1.4, 10), (0.4 + 0.1j, 2.5, 60)):
        w = domains.bounded_from_vector(alg, np.array([wv]))
        T = fischer.kernel_taylor(lam, w, top)
        coef = 1.0
        for k in range(top + 1):
            want = coef * np.conj(wv) ** k
            assert abs(T.coeffs.get((k,), 0.0) - want) <= 1e-12 * abs(want), k
            coef *= (lam + k) / (k + 1)


def test_kernel_taylor_lambda_zero():
    w = rand_bounded(SR2, 0.5)
    T = fischer.kernel_taylor(0.0, w, 6)
    assert T.coeffs == {(0, 0, 0): pytest.approx(1.0)}


def test_kernel_taylor_unit_constant_term():
    for alg in [BALL2, HC23, SR2, HQ2, SP4]:
        w = rand_bounded(alg, 0.5)
        T = fischer.kernel_taylor(1.7, w, 2)
        nv = alg.dim_m + alg.siegel_n
        assert T.coeffs[(0,) * nv] == pytest.approx(1.0)


def test_kernel_taylor_outside_domain():
    alg = eja.herm_complex(1, 1)
    w = domains.bounded_from_vector(alg, np.array([1.2 + 0.0j]))
    with pytest.raises(ValueError):
        fischer.kernel_taylor(1.0, w, 4)


@pytest.mark.parametrize("alg,lam,deg,tol", [
    (BALL2, 1.7, 18, 1e-10),
    (HC23, 2.2, 6, 1e-6),
    (SR2, 1.3, 12, 1e-10),
    (HQ2, 2.0, 8, 1e-8),
    (SP4, 1.1, 12, 1e-10),
], ids=str)
def test_kernel_taylor_matches_kernel(alg, lam, deg, tol):
    w = rand_bounded(alg, 0.35)
    T = fischer.kernel_taylor(lam, w, deg)
    for _ in range(5):
        z = rand_bounded(alg, 0.2)
        want = domains.kernel_bounded(lam, z, w)
        assert abs(T.eval(z.as_vector()) - want) < tol * abs(want)


def test_quaternion_norm_square_is_determinant():
    # pins the series route: h(z, w)^2 = det(I - S_z S_w*) in the skew picture
    for _ in range(6):
        z, w = rand_bounded(HQ2, 0.8), rand_bounded(HQ2, 0.7)
        Sz = eja.skew_embed(z.z1.as_complex())
        Sw = eja.skew_embed(w.z1.as_complex())
        det = np.linalg.det(np.eye(4) - Sz @ Sw.conj().T)
        h = domains.generic_norm(z, w)
        assert det == pytest.approx(h * h, rel=1e-10)
