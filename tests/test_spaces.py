"""Gram positivity, series norms, Monte Carlo norms, sup-norm and atomic
estimators, and the intertwining checks."""

import math
import tracemalloc

import numpy as np
import pytest

import cayley_closed_form
from symcone import cones, domains, eja, fischer, spaces, wallach
from symcone.eja import Element
from symcone.poly import SparsePolynomial, monomial_table

RNG = np.random.default_rng(20240816)

DISC = eja.herm_complex(1, 1)
HALF = eja.sym_real(1)
BALL2 = eja.herm_complex(1, 2)
SR2 = eja.sym_real(2)

Z = SparsePolynomial.variable(1, 0)


def disc_pt(z):
    return domains.bounded_from_vector(DISC, np.array([z], dtype=complex))


def half_pt(z):
    return domains.SiegelPoint(HALF, None, eja.from_zchart(HALF, np.array([z])))


def rand_poly(nv, deg, rng=RNG):
    p = SparsePolynomial.zero(nv)
    for d in range(deg + 1):
        for alpha in fischer.homogeneous_monomials(nv, d):
            if rng.uniform() < 0.5:
                p.coeffs[alpha] = rng.normal() + 1j * rng.normal()
    if not p.coeffs:
        p.coeffs[(0,) * nv] = 1.0
    return p


def rand_affine(alg, rng, spread=0.5):
    zeta0 = None
    if alg.siegel_n:
        shape = (alg.size, alg.cols - alg.size)
        zeta0 = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    x0 = Element(alg, spread * rng.normal(size=alg.dim_m))
    tri = domains._triangular_from_params(alg, spread * rng.normal(size=alg.dim_m))
    return domains.AffineMap(alg, zeta0, x0, tri)


def rand_siegel_grid(alg, rng, n):
    return [domains.siegel_from_vector(alg, v) for v in domains.sample_siegel(alg, n, rng)]


# ---------------------------------------------------------------------------
# Gram matrices and PSD verdicts
# ---------------------------------------------------------------------------

def disc_rows(*zs):
    return np.array(zs, dtype=complex)[:, None]


def test_gram_single_point_positive():
    rep = spaces.psd_verdict(1.0, DISC, disc_rows(0.3 + 0.2j))
    assert rep.verdict == "PSD"
    assert rep.min_eigenvalue > 0
    assert np.array_equal(rep.rows, disc_rows(0.3 + 0.2j))


def test_gram_disc_negative_two_point_witness():
    # det [[1, 1], [1, 0.75^0.5]] = 0.75^0.5 - 1 < 0
    V = disc_rows(0.0, 0.5)
    G = spaces.gram_matrix(-0.5, DISC, V)
    assert np.linalg.det(G).real == pytest.approx(0.75 ** 0.5 - 1.0, abs=1e-12)
    assert spaces.psd_verdict(-0.5, DISC, V).verdict == "NotPSD"


def test_gram_coincident_points_rejected():
    with pytest.raises(ValueError):
        spaces.gram_matrix(1.0, DISC, disc_rows(0.1, 0.1))
    # any pair closer than 1e-12 in the chart, not only neighbours
    zs = [0.1, -0.2j, 0.3, 0.1 + 1e-13]
    with pytest.raises(ValueError, match="coincident"):
        spaces.gram_matrix(1.0, DISC, disc_rows(*zs))
    zs[-1] = 0.1 + 1e-11
    assert spaces.gram_matrix(1.0, DISC, disc_rows(*zs)).shape == (4, 4)


def test_gram_rows_keep_nearly_real_points_apart():
    # the rows 0.1 and 0.1 + 1e-11 i lie 1e-11 apart, and so do their points:
    # bounded_from_vector keeps the imaginary part
    assert spaces.gram_matrix(1.0, DISC, disc_rows(0.1, 0.1 + 1e-11j)).shape == (2, 2)
    assert spaces.psd_verdict(1.0, DISC, disc_rows(0.1, 0.1 + 1e-11j)).verdict == "PSD"
    with pytest.raises(ValueError, match="coincident"):
        spaces.gram_matrix(1.0, DISC, disc_rows(0.1, 0.1 + 5e-13j))


def test_gram_of_points_is_the_gram_of_their_rows():
    # a caller with points stacks their rows (as_vector)
    pts = [disc_pt(0.3 + 0.2j), disc_pt(-0.5j), disc_pt(0.1)]
    V = np.array([p.as_vector() for p in pts])
    G = spaces.gram_matrix(1.5, DISC, V)
    want = [[domains.kernel_bounded(1.5, p, q) for q in pts] for p in pts]
    assert np.allclose(G, want, rtol=1e-14, atol=0)


def test_gram_bergman_parameter_psd():
    V = np.array([domains.sample_bounded(DISC, RNG) for _ in range(6)])
    assert spaces.psd_verdict(2.0, DISC, V).verdict == "PSD"


def test_gram_accepts_siegel_points():
    # at the genus the Siegel kernel is the Bergman kernel, a positive one;
    # on the non-tube herm_complex(1, 2) and (2, 3) the polarized argument
    # carries Phi(omega_i, omega_j)
    for alg, seed in ((SR2, 3), (BALL2, 4), (eja.herm_complex(2, 3), 4)):
        V = domains.sample_siegel(alg, 5, np.random.default_rng(seed))
        assert spaces.psd_verdict(float(alg.genus), alg, V,
                                  "siegel").verdict == "PSD", alg


def test_wallach_search_disc():
    rng = np.random.default_rng(1)
    assert spaces.wallach_search(1.0, DISC, 200, rng).verdict == "PSD"
    rep = spaces.wallach_search(-0.5, DISC, 500, rng)
    assert rep.verdict == "NotPSD"
    assert rep.ratio < -spaces.PSD_HARD


def test_wallach_search_symreal2_gap():
    rng = np.random.default_rng(2)
    rep = spaces.wallach_search(0.25, SR2, 2000, rng)
    assert rep.verdict == "NotPSD"
    # half-integer point of the discrete part stays positive
    rep = spaces.wallach_search(0.5, SR2, 300, rng)
    assert rep.ratio >= -1e-10


def test_wallach_search_needs_trials():
    with pytest.raises(ValueError):
        spaces.wallach_search(1.0, DISC, 0, RNG)


def test_wallach_search_frame_cluster_half_gap():
    # lambda = 1/2 lies outside {0, 1} u (1, inf); the degree-2 minor has 4
    # frame directions, so the witness needs an 8-point frame cluster
    for alg in (eja.herm_complex(2), eja.spin_factor(4)):
        assert not wallach.wallach_contains(0.5, alg)
        for seed in range(3):
            rep = spaces.wallach_search(0.5, alg, 40, np.random.default_rng(seed))
            assert rep.verdict == "NotPSD"


def test_wallach_search_deterministic():
    r1 = spaces.wallach_search(0.75, SR2, 60, np.random.default_rng(9))
    r2 = spaces.wallach_search(0.75, SR2, 60, np.random.default_rng(9))
    assert r1.min_eigenvalue == r2.min_eigenvalue
    assert r1.matrix_norm == r2.matrix_norm


def test_wallach_search_makes_one_verdict_per_trial(monkeypatch):
    # the benchmark's spaces.gram_verdicts counts spaces.psd_verdict calls
    reps = []
    verdict = spaces.psd_verdict

    def counted(*args, **kwargs):
        reps.append(verdict(*args, **kwargs))
        return reps[-1]

    monkeypatch.setattr(spaces, "psd_verdict", counted)
    for alg, lam in ((DISC, 1.0), (SR2, 2.0), (eja.spin_factor(4), 2.5)):
        reps.clear()
        rep = spaces.wallach_search(lam, alg, 12, np.random.default_rng(3))
        assert rep.verdict == "PSD" and len(reps) == 12
    # outside the set the search stops at its first witness
    reps.clear()
    rep = spaces.wallach_search(-0.5, DISC, 500, np.random.default_rng(3))
    assert rep is reps[-1] and rep.verdict == "NotPSD"
    assert all(r.verdict != "NotPSD" for r in reps[:-1])


# the point-based search that the row search replaced: every proposal built
# into a point and tested as one, a Gram matrix of the stacked as_vector
# rows; the reference for the row search's stream, verdict and ratio

def _ref_sample_bounded(alg, rng):
    c, d = domains._BOX_SCALE[alg.family], alg.zdim
    while True:
        v = c * (rng.uniform(-1, 1, size=d) + 1j * rng.uniform(-1, 1, size=d))
        p = domains.bounded_from_vector(alg, v)
        if domains.in_bounded_domain(p):
            return p


def _ref_cluster(alg, rng, realization):
    d = alg.zdim
    frame = spaces._quadric_frame(alg)
    if frame is not None:
        k = len(frame[0])
        dirs = np.zeros((d, k))
        dirs[: alg.dim_m] = spaces._small_rotation(rng, alg.dim_m, 0.04) @ frame[1]
        eps_rel = frame[2]
    else:
        k = max(1, min(spaces.MAX_DIFFUSE_POINTS // 2, d))
        dirs = np.linalg.qr(rng.standard_normal((d, k)))[0]
        eps_rel = rng.uniform(0.5, 1.0, size=k)
    eps0 = rng.uniform(0.05, 0.25)
    if realization == "siegel":
        base = np.zeros(d, dtype=complex)
        base[: alg.dim_m] = (eja.to_zchart(eja.identity(alg)) * 1j
                             + 0.05 * rng.standard_normal(alg.dim_m))
        base[alg.dim_m:] = 0.05 * rng.standard_normal(alg.siegel_n)
    else:
        base = 0.05 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    for _ in range(8):
        pts = []
        for j in range(k):
            off = eps0 * eps_rel[j] * dirs[:, j]
            pts.append(base + off)
            pts.append(base - off)
        if realization == "siegel":
            return [domains.siegel_from_vector(alg, v) for v in pts]
        pts = [domains.bounded_from_vector(alg, v) for v in pts]
        if all(domains.in_bounded_domain(p) for p in pts):
            return pts
        base, eps0 = 0.6 * base, 0.6 * eps0
    return None


def _ref_search(lam, alg, trials, rng, realization):
    worst = None
    for _ in range(trials):
        pts = None
        if rng.uniform() < 0.5:
            pts = _ref_cluster(alg, rng, realization)
        if pts is None:
            n = int(rng.integers(1, spaces.MAX_DIFFUSE_POINTS + 1))
            if realization == "siegel":
                pts = [domains.siegel_from_vector(alg, v)
                       for v in domains.sample_siegel(alg, n, rng)]
            else:
                pts = [_ref_sample_bounded(alg, rng) for _ in range(n)]
        V = np.array([p.as_vector() for p in pts])
        rep = spaces.psd_verdict(lam, alg, V, realization)
        if worst is None or rep.ratio < worst.ratio:
            worst = rep
        if worst.verdict == "NotPSD":
            break
    return worst


@pytest.mark.parametrize("alg,lams,realization", [
    (DISC, (-0.5, 0.5), "bounded"),
    (eja.herm_complex(2, 2), (0.5, 1.5), "bounded"),
    (SR2, (0.25, 0.75), "bounded"),
    (eja.spin_factor(4), (0.5, 2.5), "bounded"),
    (SR2, (0.25, 1.5), "siegel"),
], ids=["disc", "herm_complex(2,2)", "sym_real(2)", "spin_factor(4)", "sym_real(2)-siegel"])
def test_row_search_keeps_the_point_search_stream(alg, lams, realization):
    # the same draws, so the same generator state afterwards, the same
    # verdict, the worst configuration's rows and the ratio within 1e-14
    for lam in lams:
        for seed in (5, 6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = spaces.wallach_search(lam, alg, 12, rng, realization)
            want = _ref_search(lam, alg, 12, ref_rng, realization)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert got.verdict == want.verdict, (lam, seed)
            assert np.allclose(got.rows, want.rows, rtol=0, atol=1e-15)
            assert got.ratio == pytest.approx(want.ratio, abs=1e-14, rel=0)


# ---------------------------------------------------------------------------
# series inner product on the Wallach set
# ---------------------------------------------------------------------------

def test_h_lambda_disc_monomials():
    for lam in (0.5, 1.0, 2.0):
        for k in range(9):
            want = math.factorial(k) * math.gamma(lam) / math.gamma(lam + k)
            got, shell = spaces.h_lambda_inner(Z ** k, Z ** k, lam, DISC, 20)
            assert got.real == pytest.approx(want, rel=1e-12)
            assert abs(got.imag) < 1e-14
            assert shell == 0.0


def test_h_lambda_constant_and_orthogonality():
    one = SparsePolynomial.constant(1, 1.0)
    got, _ = spaces.h_lambda_inner(one, one, 0.7, DISC, 10)
    assert got == pytest.approx(1.0)
    cross, _ = spaces.h_lambda_inner(Z ** 2, Z ** 3, 1.0, DISC, 10)
    assert abs(cross) < 1e-14


def test_h_lambda_outside_wallach_rejected():
    with pytest.raises(ValueError):
        spaces.h_lambda_inner(Z, Z, -0.3, DISC, 10)
    with pytest.raises(ValueError):
        spaces.h_lambda_inner(SparsePolynomial.constant(3, 1.0),
                              SparsePolynomial.constant(3, 1.0), 0.25, SR2, 6)


def test_reproducing_identity_disc():
    lam = 1.5
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        wp = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        kw = fischer.kernel_taylor(lam, disc_pt(w), 30)
        kwp = fischer.kernel_taylor(lam, disc_pt(wp), 30)
        got, shell = spaces.h_lambda_inner(kw, kwp, lam, DISC, 30)
        want = domains.kernel_bounded(lam, disc_pt(wp), disc_pt(w))
        assert abs(got - want) <= max(1e-8, 10 * shell)


def test_reproducing_identity_symreal2():
    lam = 2.5
    rng = np.random.default_rng(12)
    proj = fischer.projector(SR2)
    for _ in range(3):
        vw = 0.2 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        vv = 0.2 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        w = domains.bounded_from_vector(SR2, vw)
        wp = domains.bounded_from_vector(SR2, vv)
        kw = fischer.kernel_taylor(lam, w, 8)
        kwp = fischer.kernel_taylor(lam, wp, 8)
        got, shell = spaces.h_lambda_inner(kw, kwp, lam, SR2, 8, cache=proj)
        want = domains.kernel_bounded(lam, wp, w)
        assert abs(got - want) <= max(1e-6, 10 * shell)


@pytest.mark.parametrize("alg,lam,top", [
    (SR2, 2.5, 5), (eja.herm_complex(2, 2), 3.0, 3), (eja.spin_factor(4), 2.5, 4),
], ids=str)
def test_h_lambda_inner_matches_basis_polynomial_formula(alg, lam, top):
    # sum_s sum_b <f, b>_F conj<g, b>_F / (lambda)_s over basis polynomials
    # rebuilt from the stored rows, against the one-product pairing
    rng = np.random.default_rng(33)
    proj = fischer.projector(alg)
    f, g = rand_poly(alg.zdim, top, rng), rand_poly(alg.zdim, top, rng)
    want = 0.0
    for s in wallach.enumerate_signatures(alg.rank, top):
        table = monomial_table(alg.zdim, sum(s))
        pair = 0.0
        for row in proj.basis(s):
            b = SparsePolynomial(alg.zdim, {a: c / w for a, c, w
                                            in zip(table.monos, row, table.weights)})
            pair += fischer.fischer_inner(f, b) * np.conj(fischer.fischer_inner(g, b))
        want += pair / wallach.pochhammer(lam, s, alg)
    got, _ = spaces.h_lambda_inner(f, g, lam, alg, top, cache=proj)
    assert abs(got - want) <= 1e-12 * abs(want)


def _reference_series(f, g, lam, alg, trunc, q):
    """The per-signature loop the degree-by-degree series replaced: for each
    signature of degree <= top with q_order(s, lam) == q, the Fischer pairing
    of the projections over the stored rows of P_s, divided by (lam)_s (q = 0)
    or the residue product. Returns (degree, term) pairs in lex order."""
    proj = fischer.projector(alg)

    def parts(p, top):
        out = {}
        for a, c in p.coeffs.items():
            if sum(a) <= top:
                tab = monomial_table(p.nvars, sum(a))
                v = out.setdefault(sum(a), np.zeros(len(tab.monos), dtype=complex))
                v[tab.index[a]] = c
        return {d: v * monomial_table(f.nvars, d).weights for d, v in out.items()}

    if f.degree() < 0 or g.degree() < 0:
        return []
    top = min(trunc, f.degree(), g.degree())
    vf, vg = parts(f, top), parts(g, top)
    terms = []
    for s in wallach.enumerate_signatures(alg.rank, top):
        if wallach.q_order(s, lam, alg) != q:
            continue
        a, b = vf.get(sum(s)), vg.get(sum(s))
        if a is None or b is None:
            continue
        if alg.rank == 1:
            pair = complex(a @ b.conj())
        else:
            rows = proj.basis(s).conj()
            pair = complex((rows @ a) @ (rows @ b).conj())
        if q == 0:
            terms.append((sum(s), pair / wallach.pochhammer(lam, s, alg)))
        else:
            terms.append((sum(s), pair / wallach.residue_pochhammer(lam, s, alg)))
    return terms


SERIES_CASES = [  # algebra, top degree, generic lambda, lambdas with q_order > 0
    (DISC, 12, 1.7, ()), (eja.herm_complex(1, 3), 5, 2.6, ()), (SR2, 6, 1.3, (0.5,)),
    (eja.sym_real(3), 4, 2.2, ()), (eja.herm_complex(2, 2), 5, 2.4, (1.0,)),
    (eja.herm_quaternion(2), 4, 4.5, ()), (eja.spin_factor(4), 5, 2.3, ()),
]


@pytest.mark.parametrize("alg,top,generic,lattice", SERIES_CASES, ids=str)
def test_series_matches_per_signature_reference(alg, top, generic, lattice):
    rng = np.random.default_rng(2029)
    f, g = rand_poly(alg.zdim, top, rng), rand_poly(alg.zdim, top, rng)
    gap = SparsePolynomial(alg.zdim, {a: c for a, c in g.coeffs.items() if sum(a) != 2})
    grid = (0.3, 0.7, 0.95)
    for lam in (generic,) + lattice:
        for u, v, trunc in ((f, g, top), (f, f, top), (f, gap, top - 1), (gap, f, top)):
            want = _reference_series(u, v, lam, alg, trunc, 0)
            value = sum(t for _, t in want)
            shell = sum(abs(t) for d, t in want if d == trunc)
            got, got_shell = spaces.h_lambda_inner(u, v, lam, alg, trunc)
            assert abs(got - value) <= 1e-13 * abs(value), (lam, trunc)
            assert abs(got_shell - shell) <= 1e-12 * abs(value), (lam, trunc)
        terms = _reference_series(f, f, lam, alg, top, 0)
        _, values = spaces.dilation_monotonicity(f, lam, alg, grid, top)
        for R, got in zip(grid, values):
            want = sum(t.real * R ** (2 * d) for d, t in terms)
            assert abs(got - want) <= 1e-13 * abs(want), (lam, R)
    base = alg.dim_m / alg.rank - 1.0
    for lam in (base - k for k in range(int(base) + 2)):
        if not spaces._on_tilde_lattice(lam, alg):
            continue
        q = wallach.q_max(lam, alg)
        for u in (f, gap):
            want = math.sqrt(max(sum(t.real for _, t in _reference_series(u, u, lam, alg, top, q)), 0))
            got = spaces.h_tilde_seminorm(u, lam, alg, top)
            assert abs(got - want) <= 1e-13 * want, lam


def test_pairing_reads_stacked_bases_and_builds_none(monkeypatch):
    # bases warmed as the series_norm benchmark's set-up warms them: a
    # pairing builds no basis, and afterwards every basis of a stacked degree
    # is a view into its stack (no second copy)
    alg, top = eja.herm_complex(2, 2), 4
    proj = fischer.PsProjector(alg)
    for s in wallach.enumerate_signatures(alg.rank, top):
        proj.basis(s)
    calls = []
    monkeypatch.setattr(fischer, "orbit_span", lambda *a: calls.append(a))
    rng = np.random.default_rng(5)
    f, g = rand_poly(alg.zdim, top, rng), rand_poly(alg.zdim, top, rng)
    f = SparsePolynomial(alg.zdim, {a: c for a, c in f.coeffs.items() if sum(a) != 3})
    spaces.h_lambda_inner(f, g, 3.0, alg, top, cache=proj)
    assert calls == []
    # a degree is stacked only where both sides have a part of it
    both = [d for d in range(top + 1)
            if all(any(sum(a) == d for a in p.coeffs) for p in (f, g))]
    assert 3 not in both and sorted(proj._stacks) == both
    for d, (rows, _) in proj._stacks.items():
        for s in wallach.enumerate_signatures(alg.rank, d):
            if sum(s) == d:
                assert np.shares_memory(proj.basis(s), rows), s


def test_dilation_monotonicity_single_term():
    grid = (0.2, 0.5, 0.8, 0.95)
    flag, vals = spaces.dilation_monotonicity(Z, 1.0, DISC, grid, 10)
    assert flag
    assert vals == pytest.approx([r ** 2 for r in grid], rel=1e-12)


def test_dilation_constant_flat():
    one = SparsePolynomial.constant(1, 2.0)
    flag, vals = spaces.dilation_monotonicity(one, 1.5, DISC, (0.1, 0.9), 10)
    assert flag
    assert vals == pytest.approx([4.0, 4.0])


def test_dilation_random_polynomial_monotone():
    f = rand_poly(1, 5)
    flag, vals = spaces.dilation_monotonicity(f, 2.0, DISC,
                                              np.linspace(0.1, 0.99, 12), 12)
    assert flag
    assert vals[-1] <= spaces.h_lambda_norm_sq(f, 2.0, DISC, 12)[0] + 1e-12


# ---------------------------------------------------------------------------
# degenerate-lattice seminorm
# ---------------------------------------------------------------------------

def test_h_tilde_dirichlet_monomials():
    for k in range(1, 11):
        sem = spaces.h_tilde_seminorm(Z ** k, 0.0, DISC, 14)
        assert sem ** 2 == pytest.approx(k, rel=1e-12)


def test_h_tilde_next_lattice_point():
    for k in range(2, 8):
        sem = spaces.h_tilde_seminorm(Z ** k, -1.0, DISC, 10)
        assert sem ** 2 == pytest.approx(k * (k - 1), rel=1e-12)
    assert spaces.h_tilde_seminorm(Z, -1.0, DISC, 10) == 0.0


def test_h_tilde_kills_constants():
    one = SparsePolynomial.constant(1, 5.0)
    assert spaces.h_tilde_seminorm(one, 0.0, DISC, 8) == 0.0


def test_h_tilde_off_lattice_rejected():
    with pytest.raises(ValueError):
        spaces.h_tilde_seminorm(Z, 0.3, DISC, 8)
    with pytest.raises(ValueError):
        spaces.h_tilde_seminorm(Z, 1.0, DISC, 8)


def disc_gradient_energy(p, n_radial=240, n_angular=64):
    """Lebesgue integral of |p'|^2 over the unit disc, polar midpoint rule."""
    fp = p.derivative(0)
    r = (np.arange(n_radial) + 0.5) / n_radial
    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    zs = np.outer(r, np.exp(1j * th)).ravel()
    vals = np.abs(fp.eval(zs[:, None])) ** 2
    w = np.repeat(r, n_angular)
    return float(np.sum(vals * w) * (1.0 / n_radial) * (2.0 * np.pi / n_angular))


def test_h_tilde_dirichlet_quadrature_cross_check():
    # one global constant (pi, from the Lebesgue convention) fitted on z
    const = disc_gradient_energy(Z) / spaces.h_tilde_seminorm(Z, 0.0, DISC, 8) ** 2
    assert const == pytest.approx(np.pi, rel=1e-6)
    rng = np.random.default_rng(21)
    for _ in range(3):
        f = rand_poly(1, 5, rng)
        sem2 = spaces.h_tilde_seminorm(f, 0.0, DISC, 10) ** 2
        assert disc_gradient_energy(f) == pytest.approx(const * sem2, rel=1e-2)


# ---------------------------------------------------------------------------
# Monte Carlo norms
# ---------------------------------------------------------------------------

def test_bergman_disc_area():
    # lambda = g: the draws are uniform on the disc and f = 1 has no
    # variance, so the estimate is c_lambda = pi up to rounding, with se 0
    one = spaces.poly_function(DISC, SparsePolynomial.constant(1, 1.0))
    norm, se = spaces.bergman_norm_mc(one, 2.0, DISC, 100000,
                                      np.random.default_rng(4))
    assert norm ** 2 == pytest.approx(np.pi, rel=1e-14)
    assert se == 0.0


def test_bergman_disc_monomial_ratio():
    # lambda = 3: ||1||^2 / ||z||^2 = (lambda)_1 / 1! = 3
    rng = np.random.default_rng(5)
    one = spaces.poly_function(DISC, SparsePolynomial.constant(1, 1.0))
    fz = spaces.poly_function(DISC, Z)
    n1, _ = spaces.bergman_norm_mc(one, 3.0, DISC, 200000, rng)
    nz, _ = spaces.bergman_norm_mc(fz, 3.0, DISC, 200000, rng)
    assert n1 ** 2 / nz ** 2 == pytest.approx(3.0, rel=0.03)


def test_bergman_evaluator_only_path_matches_oracle():
    # no Taylor data: the batch evaluator alone
    f = spaces.HolFunction(DISC, lambda V: V[:, 0] ** 2)
    norm, se = spaces.bergman_norm_mc(f, 2.0, DISC, 20000,
                                      np.random.default_rng(6))
    assert norm ** 2 == pytest.approx(np.pi / 3.0, abs=8 * se * 2 * norm)


def test_bergman_needs_integrable_weight():
    one = spaces.poly_function(DISC, SparsePolynomial.constant(1, 1.0))
    with pytest.raises(ValueError):
        spaces.bergman_norm_mc(one, 1.0, DISC, 100, RNG)


def test_bergman_siegel_proportional_to_series():
    # transported polynomials: MC norm on the Siegel side is a constant
    # multiple of the series norm on the bounded side
    lam = 4.0
    rng = np.random.default_rng(7)
    ratios = []
    for p in (SparsePolynomial.constant(3, 1.0),
              SparsePolynomial.variable(3, 1),
              rand_poly(3, 2, np.random.default_rng(30))):
        fb = spaces.poly_function(SR2, p)
        fs = spaces.transport_to_siegel(fb, lam)
        est, se = spaces.bergman_norm_mc(fs, lam, SR2, 150000, rng,
                                         realization="siegel")
        series = spaces.h_lambda_norm_sq(p, lam, SR2, 8)[0]
        ratios.append(est ** 2 / series)
    mid = np.median(ratios)
    assert max(abs(r / mid - 1.0) for r in ratios) < 0.08


# the tube families, then the Siegel domains of type II
SIEGEL_FAMILIES = [eja.herm_complex(1), eja.sym_real(2), eja.sym_real(3),
                   eja.herm_complex(2), eja.herm_quaternion(2),
                   eja.spin_factor(4), eja.spin_factor(5),
                   BALL2, eja.herm_complex(1, 3), eja.herm_complex(2, 3)]


@pytest.mark.parametrize("alg", [
    eja.sym_real(2), eja.sym_real(3), eja.herm_complex(2), BALL2,
    eja.herm_complex(2, 3), eja.herm_quaternion(2), eja.spin_factor(4),
    eja.spin_factor(5)], ids=str)
def test_weighted_draws_reproduce_the_series_norm(alg):
    # under the exact draws of c_lambda^(-1) h^(lambda - g) dm, E|f|^2 is the
    # series norm ||f||^2_lambda; a partial K or a wrong radial law moves it
    rng = np.random.default_rng(40)
    for lam in (alg.genus - 0.5, alg.genus + 1.0):
        f = rand_poly(alg.zdim, 2, rng)
        V, _ = domains.sample_weighted_bounded(alg, lam, 40000, rng)
        x = np.abs(f.eval(V)) ** 2
        want = spaces.h_lambda_norm_sq(f, lam, alg, 2)[0]
        assert abs(x.mean() - want) <= 5 * x.std() / math.sqrt(len(x)), lam


@pytest.mark.parametrize("alg", SIEGEL_FAMILIES, ids=str)
def test_siegel_estimate_is_the_bounded_one_times_two_to_twice_the_dimension(alg):
    # the Siegel draws are the Cayley images of the bounded ones, and a
    # transported polynomial has weight 2^(2 dim_m) c_lambda |f(z)|^2: with
    # one seed both estimates agree up to that factor, and f = 1 gives the
    # constant itself with no variance
    lam = alg.genus + 0.5
    const = 2.0 ** (2 * alg.dim_m)
    for p in (SparsePolynomial.constant(alg.zdim, 1.0),
              rand_poly(alg.zdim, 2, np.random.default_rng(41))):
        fb = spaces.poly_function(alg, p)
        fs = spaces.transport_to_siegel(fb, lam)
        nb, seb = spaces.bergman_norm_mc(fb, lam, alg, 3000,
                                         np.random.default_rng(42))
        ns, ses = spaces.bergman_norm_mc(fs, lam, alg, 3000,
                                         np.random.default_rng(42),
                                         realization="siegel")
        assert ns ** 2 == pytest.approx(const * nb ** 2, rel=1e-8)
        assert ses == pytest.approx(math.sqrt(const) * seb, rel=1e-6, abs=1e-8 * ns)
    c = domains.bergman_constant(alg, lam)
    one = spaces.poly_function(alg, SparsePolynomial.constant(alg.zdim, 1.0))
    norm, se = spaces.bergman_norm_mc(spaces.transport_to_siegel(one, lam), lam,
                                      alg, 3000, np.random.default_rng(43),
                                      realization="siegel")
    assert norm ** 2 == pytest.approx(const * c, rel=1e-8)
    assert se <= 1e-8 * norm


@pytest.mark.parametrize("alg", SIEGEL_FAMILIES, ids=str)
def test_siegel_estimate_through_the_bounded_rows_matches_the_siegel_rows(alg):
    # a transported f is evaluated at the bounded rows z; a function with the
    # same evaluator but no bounded function goes through f.batch on the
    # Cayley images w, which inverts them again: one seed, one estimate
    lam = alg.genus + 0.5
    fb = spaces.poly_function(alg, rand_poly(alg.zdim, 2, np.random.default_rng(44)))
    fs = spaces.transport_to_siegel(fb, lam)
    plain = spaces.HolFunction(alg, fs.batch, domain="siegel")
    assert fs.transported == (fb, lam) and plain.transported is None
    n = spaces.BLOCK + 500
    norm, se = spaces.bergman_norm_mc(fs, lam, alg, n, np.random.default_rng(45),
                                      realization="siegel")
    norm_w, se_w = spaces.bergman_norm_mc(plain, lam, alg, n, np.random.default_rng(45),
                                          realization="siegel")
    assert norm == pytest.approx(norm_w, rel=1e-10)
    assert se == pytest.approx(se_w, rel=1e-8)


@pytest.mark.parametrize("alg", SIEGEL_FAMILIES[-3:], ids=str)
def test_siegel_estimate_of_a_transported_polynomial_off_the_tubes(alg):
    # on the Siegel domains of type II the estimate of a transported random
    # degree-2 polynomial at lambda = g + 1/2 lies within 5 of its own
    # standard errors of 2^(2 dim_m) c_lambda ||f||^2_lambda
    lam = alg.genus + 0.5
    p = rand_poly(alg.zdim, 2, np.random.default_rng(46))
    f = spaces.transport_to_siegel(spaces.poly_function(alg, p), lam)
    norm, se = spaces.bergman_norm_mc(f, lam, alg, 200000, np.random.default_rng(1),
                                      realization="siegel")
    want = (2.0 ** (2 * alg.dim_m) * domains.bergman_constant(alg, lam)
            * spaces.h_lambda_norm_sq(p, lam, alg, 2)[0])
    assert abs(norm ** 2 - want) <= 5 * 2 * norm * se


SPIN_CFG = domains.SiegelSamplerConfig(cauchy_x=True, sigma_x=0.5,
                                       sigma_logdiag=0.5, sigma_lower=0.5)


def test_spin_siegel_estimates_lie_within_their_own_errors():
    # spin_factor(4) at lambda = 6 with 400 draws, the setting whose Siegel
    # importance weights were heavy-tailed: for each of 200 seeds, the
    # estimates of ||1||^2 and of a random transported polynomial lie within
    # 6 of their own standard errors (plus rounding) of the absolute value
    # 2^(2 dim_m) c_lambda ||f||^2_lambda
    alg, lam = eja.spin_factor(4), 6.0
    const = 2.0 ** (2 * alg.dim_m) * domains.bergman_constant(alg, lam)
    monos = [a for d in range(3) for a in fischer.homogeneous_monomials(4, d)]
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for p in (SparsePolynomial.constant(4, 1.0), None):
            if p is None:
                coeffs = rng.normal(size=15) + 1j * rng.normal(size=15)
                p = SparsePolynomial(4, dict(zip(monos, coeffs)))
            f = spaces.transport_to_siegel(spaces.poly_function(alg, p), lam)
            norm, se = spaces.bergman_norm_mc(f, lam, alg, 400, rng,
                                              realization="siegel",
                                              config=SPIN_CFG)
            want = const * spaces.h_lambda_norm_sq(p, lam, alg, 2)[0]
            assert abs(norm ** 2 - want) <= 6 * 2 * norm * se + 1e-12 * want, seed


def test_monte_carlo_peak_memory_is_set_by_the_block():
    # tracemalloc peak of each estimator at 64 blocks against 4 blocks; at 4
    # blocks, the Bergman peaks in float64 words per draw of one block stay
    # within 10 on the disc and 40 for a transported sym_real(2) polynomial
    fz = spaces.poly_function(DISC, Z * Z)
    fs = spaces.transport_to_siegel(fz, 3.0)
    fh = spaces.transport_to_siegel(spaces.poly_function(DISC, Z + 1.0), 1.0)
    fsr = spaces.transport_to_siegel(
        spaces.poly_function(SR2, rand_poly(3, 3, np.random.default_rng(5))), 4.0)
    runs = [
        (lambda n: spaces.bergman_norm_mc(fz, 3.0, DISC, n, np.random.default_rng(1)),
         10),
        (lambda n: spaces.bergman_norm_mc(fs, 3.0, DISC, n, np.random.default_rng(2),
                                          realization="siegel"), None),
        (lambda n: spaces.hardy_norm_mc(fz, DISC, n, np.random.default_rng(3)), None),
        (lambda n: spaces.hardy_norm_mc(fh, DISC, n, np.random.default_rng(4),
                                        realization="siegel"), None),
        (lambda n: spaces.bergman_norm_mc(fsr, 4.0, SR2, n, np.random.default_rng(5),
                                          realization="siegel"), 40),
    ]

    def peak(run, n):
        tracemalloc.start()
        try:
            run(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    words = 8 * spaces.BLOCK
    for run, most in runs:
        run(spaces.BLOCK)
        small, large = peak(run, 4 * spaces.BLOCK), peak(run, 64 * spaces.BLOCK)
        assert large <= 1.5 * small, (small, large)
        if most is not None:
            assert small <= most * words, small / words


@pytest.mark.parametrize("n", [0, -1])
def test_monte_carlo_norms_need_a_sample(n):
    f = spaces.poly_function(DISC, Z)
    with pytest.raises(ValueError):
        spaces.bergman_norm_mc(f, 2.0, DISC, n, np.random.default_rng(0))
    with pytest.raises(ValueError):
        spaces.hardy_norm_mc(f, DISC, n, np.random.default_rng(0))


def test_hardy_disc_monomials():
    rng = np.random.default_rng(8)
    for k in (1, 5, 17, 40):
        f = spaces.poly_function(DISC, Z ** k)
        val = spaces.hardy_norm_mc(f, DISC, 200000, rng)
        assert abs(val - 1.0) <= 1e-12


@pytest.mark.parametrize("alg", [
    DISC, eja.herm_complex(1, 3), SR2, eja.sym_real(3), eja.herm_complex(2),
    eja.herm_complex(2, 3), eja.herm_quaternion(2), eja.spin_factor(4),
    eja.spin_factor(5)], ids=str)
def test_hardy_norm_is_the_series_norm_at_zdim_over_rank(alg):
    # H^2 = H_lambda at lambda = zdim / rank (Faraut-Koranyi): ||1|| = 1,
    # and the Shilov-boundary mean of |f|^2 lies within 5 standard errors of
    # the series norm at degrees 1 to 3; a boundary off K.e or a partial K
    # moves it
    one = spaces.poly_function(alg, SparsePolynomial.constant(alg.zdim, 1.0))
    assert abs(spaces.hardy_norm_mc(one, alg, 1000, np.random.default_rng(0)) - 1.0) <= 1e-12
    lam = alg.zdim / alg.rank
    rng = np.random.default_rng(47)
    n = 40000
    for deg in (1, 2, 3):
        p = rand_poly(alg.zdim, deg, rng)
        est = spaces.hardy_norm_mc(spaces.poly_function(alg, p), alg, n, rng) ** 2
        x = np.abs(p.eval(domains._polar_rows(alg, np.ones((n, alg.rank)), rng))) ** 2
        want = spaces.h_lambda_norm_sq(p, lam, alg, deg)[0]
        assert abs(est - want) <= 5 * x.std() / math.sqrt(n) + 1e-12 * want, deg


def test_hardy_zero_function():
    assert spaces.hardy_norm_mc(spaces.zero_function(DISC), DISC, 1000, RNG) == 0.0


def test_hardy_halfplane_closed_form():
    # f = (z + i)^(-2): integral over the line at height 1 + t is
    # pi / (2 (1 + t)^3), so the sup over the cone grid sits at t = 0.02
    f = spaces.HolFunction(HALF, lambda V: (V[:, 0] + 1j) ** -2.0, domain="siegel")
    val = spaces.hardy_norm_mc(f, HALF, 60000, np.random.default_rng(9),
                               realization="siegel", cone_grid=(0.02, 0.5))
    want = math.sqrt(math.pi / (2.0 * 1.02 ** 3))
    assert val == pytest.approx(want, rel=0.03)


def test_hardy_matches_series_normalization():
    # H_1 on the disc is the Hardy space with these conventions
    got, _ = spaces.h_lambda_inner(Z ** 7, Z ** 7, 1.0, DISC, 10)
    assert got.real == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sup-norm space, atoms, lattices
# ---------------------------------------------------------------------------

def test_atom_normalized_at_center():
    for alg in (HALF, SR2):
        center = domains.siegel_base_point(alg)
        atom = spaces.siegel_kernel_atom(3.0, center)
        assert spaces.weighted_modulus(atom, 3.0, center) == pytest.approx(1.0)


def test_sup_norm_affine_invariance():
    lam = 4.0
    rng = np.random.default_rng(10)
    f = spaces.siegel_kernel_atom(lam, domains.siegel_base_point(SR2))
    grid = rand_siegel_grid(SR2, rng, 25)
    base = spaces.sup_norm_max_space(f, lam, grid)
    for _ in range(3):
        phi = rand_affine(SR2, rng)
        moved = spaces.u_lambda_affine(f, phi, lam)
        grid2 = [domains.affine_apply(phi, p) for p in grid]
        v = spaces.sup_norm_max_space(moved, lam, grid2)
        assert v == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("alg", [SR2, BALL2, eja.herm_complex(2, 3),
                                 eja.spin_factor(4)], ids=str)
def test_siegel_bergman_norm_is_invariant_under_the_affine_action(alg):
    # U_lambda(phi) is unitary on the Siegel Bergman space: the estimate of
    # ||U_lambda(phi) T f||^2 lies within 5 of its own standard errors of
    # 2^(2 dim_m) c_lambda ||f||^2_lambda, the value for phi = 1. The moved
    # function is not a transport, so its importance weights are unbounded;
    # spread 0.2 keeps their tail light (at 0.5 with this seed one
    # herm_complex(2, 3) map read -32 standard errors, and spin_factor(4)
    # had a 50 % relative standard error)
    rng = np.random.default_rng(47)
    lam = alg.genus + 0.5
    p = rand_poly(alg.zdim, 2, rng)
    tf = spaces.transport_to_siegel(spaces.poly_function(alg, p), lam)
    want = (2.0 ** (2 * alg.dim_m) * domains.bergman_constant(alg, lam)
            * spaces.h_lambda_norm_sq(p, lam, alg, 2)[0])
    for _ in range(3):
        moved = spaces.u_lambda_affine(tf, rand_affine(alg, rng, spread=0.2), lam)
        norm, se = spaces.bergman_norm_mc(moved, lam, alg, 200_000, rng, "siegel")
        assert abs(norm ** 2 - want) <= 5 * 2 * norm * se, (norm ** 2, want)


@pytest.mark.parametrize("alg", [SR2, BALL2, eja.herm_complex(2, 3)], ids=str)
def test_u_lambda_affine_rows_match_the_point_route(alg):
    # the rows V @ A.T + b against f(affine_apply(affine_inverse(phi), p)) *
    # scale point by point; off the tubes b and A carry 2i Phi(zeta, zeta0)
    rng = np.random.default_rng(19)
    lam = alg.genus + 0.5
    f = spaces.poly_function(alg, rand_poly(alg.zdim, 3, rng), domain="siegel")
    for _ in range(3):
        phi = rand_affine(alg, rng)
        inv = spaces.affine_inverse(phi)
        scale = domains.affine_real_jacobian(phi) ** (-lam / (2.0 * alg.genus))
        V = domains.sample_siegel(alg, 6, rng)
        want = np.array([f(domains.affine_apply(inv, domains.siegel_from_vector(alg, v)))
                         for v in V]) * scale
        got = spaces.u_lambda_affine(f, phi, lam).batch(V)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), alg


def test_affine_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for alg in (HALF, SR2, eja.herm_complex(2, 3)):
        phi = rand_affine(alg, rng)
        inv = spaces.affine_inverse(phi)
        for p in rand_siegel_grid(alg, rng, 4):
            q = domains.affine_apply(inv, domains.affine_apply(phi, p))
            assert np.allclose(q.z.coords, p.z.coords, atol=1e-10)
            if alg.siegel_n:
                assert np.allclose(q.zeta, p.zeta, atol=1e-10)


def test_lattice_disc_separation():
    lat = spaces.lattice_generate(0.4, 0.85, DISC)
    zs = [complex(p.as_vector()[0]) for p in lat.points]
    assert len(zs) > 3
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            assert spaces.hyperbolic_distance_disc(zs[i], zs[j]) >= 0.8 - 1e-12


def test_lattice_disc_maximal_in_region():
    lat = spaces.lattice_generate(0.5, 0.8, DISC)
    zs = [complex(p.as_vector()[0]) for p in lat.points]
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = 0.75 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        # every domain point of the truncated region is near some lattice point
        assert min(spaces.hyperbolic_distance_disc(w, z) for z in zs) < 1.1


def test_lattice_halfplane_points_in_region():
    lat = spaces.lattice_generate(0.3, (2.0, 0.5, 4.0), HALF)
    assert len(lat.points) > 3
    for p in lat.points:
        z = complex(p.z.coords[0])
        assert 0.5 - 1e-9 <= z.imag <= 4.0 + 1e-9
        assert abs(z.real) <= 2.0 * z.imag + 1e-9
    zs = [complex(p.z.coords[0]) for p in lat.points]
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            assert spaces.hyperbolic_distance_halfplane(zs[i], zs[j]) >= 0.6 - 1e-12


def test_lattice_rank2_unsupported():
    with pytest.raises(NotImplementedError):
        spaces.lattice_generate(0.3, 0.9, SR2)


def test_atomic_synthesis_bound_and_rejections():
    lam = 3.0
    lat = spaces.lattice_generate(0.4, (2.0, 0.5, 4.0), HALF)
    coeffs = [1.0, -0.5, 0.25j]
    f = spaces.atomic_synthesis(coeffs, lat, lam)
    grid = [half_pt(x + 1j * y)
            for x in np.linspace(-3, 3, 9) for y in (0.3, 1.0, 2.5)]
    est = spaces.sup_norm_max_space(f, lam, grid)
    assert 0.0 < est <= sum(abs(c) for c in coeffs) + 1e-9
    with pytest.raises(ValueError):
        spaces.atomic_synthesis([1.0, np.inf], lat, lam)
    with pytest.raises(ValueError):
        spaces.atomic_synthesis([1.0], lat, -1.0)


def test_single_atom_value():
    lat = spaces.Lattice([domains.siegel_base_point(HALF)], 0.5)
    f = spaces.atomic_synthesis([1.0], lat, 3.0)
    p = half_pt(0.7 + 2.0j)
    base = domains.siegel_base_point(HALF)
    want = (domains.kernel_siegel(3.0, p, base)
            / abs(domains.kernel_siegel(3.0, base, base)))
    assert f(p) == pytest.approx(want)


# ---------------------------------------------------------------------------
# Bloch and Besov on the disc
# ---------------------------------------------------------------------------

def test_bloch_of_z_and_constant():
    grid = [0.0, 0.3, 0.6j, 0.5 - 0.5j]
    f = spaces.poly_function(DISC, Z)
    assert spaces.bloch_seminorm_disc(f, grid) == pytest.approx(1.0)
    c = spaces.poly_function(DISC, SparsePolynomial.constant(1, 3.0))
    assert spaces.bloch_seminorm_disc(c, grid) == 0.0


def test_besov_z_squared_area():
    f = spaces.poly_function(DISC, Z ** 2)
    assert spaces.besov1_norm_disc(f) == pytest.approx(2.0 * np.pi, rel=1e-9)


def test_besov_jet_terms():
    p = SparsePolynomial(1, {(0,): 3.0, (1,): 2.0, (2,): 1.0})
    f = spaces.poly_function(DISC, p)
    assert spaces.besov1_norm_disc(f) == pytest.approx(5.0 + 2.0 * np.pi, rel=1e-9)


def test_inclusion_chain_constants_finite():
    # the chain is qualitative; the constants are reported, not pinned
    rng = np.random.default_rng(14)
    grid = [0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(300)]
    c_lower, c_upper = 0.0, 0.0
    for _ in range(20):
        f = rand_poly(1, 6, rng)
        ff = spaces.poly_function(DISC, f)
        besov = spaces.besov1_norm_disc(ff)
        bloch = spaces.bloch_seminorm_disc(ff, grid)
        sem = spaces.h_tilde_seminorm(f, 0.0, DISC, 12)
        assert besov > 0
        c_lower = max(c_lower, sem / besov)
        c_upper = max(c_upper, bloch / besov)
    assert 0 < c_lower < np.inf
    assert 0 < c_upper < np.inf


# ---------------------------------------------------------------------------
# intertwining: disc Mobius maps
# ---------------------------------------------------------------------------

def test_intertwine_disc_identity_map():
    f = Z ** 2
    res = spaces.intertwine_check_disc(domains.mobius_identity(DISC), f, 0,
                                       [0.1, -0.2 + 0.3j])
    assert res < 1e-13


def test_intertwine_disc_residuals():
    rng = np.random.default_rng(15)
    pts = [0.0, 0.2, -0.3 + 0.25j, 0.1j]
    for lam in (0, -1, -2):
        for _ in range(5):
            phi = domains.mobius_sample(DISC, rng)
            f = rand_poly(1, 5, rng)
            assert spaces.intertwine_check_disc(phi, f, lam, pts) < 1e-9


def test_intertwine_disc_needs_nonpositive_integer():
    with pytest.raises(ValueError):
        spaces.intertwine_check_disc(domains.mobius_identity(DISC), Z, 0.5, [0.0])


def test_mobius_series_isometry():
    # order 100 leaves the |b| <= 0.8 truncation tail below 1e-7
    rng = np.random.default_rng(16)
    f = SparsePolynomial(1, {(0,): 1.0, (1,): 1.0, (3,): 0.5})
    maps = [domains.mobius_sample(DISC, rng) for _ in range(4)]
    maps.append(domains.MobiusMap(DISC, np.array([0.8 * np.exp(0.7j)]),
                                  np.array([[np.exp(0.3j)]])))
    for lam in (0.5, 2.0, 3.7):
        base = spaces.h_lambda_norm_sq(f, lam, DISC, 100)[0]
        for phi in maps:
            uf = spaces.u_lambda_disc_taylor(phi, f, lam, 100)
            moved = spaces.h_lambda_norm_sq(uf, lam, DISC, 100)[0]
            assert moved == pytest.approx(base, rel=1e-6)


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
def test_mobius_series_of_one_is_closed_form(lam):
    # U_lam 1 = (phi')^(lam/2) = c0^lam (1 - conj(b) z)^(-lam), so its Taylor
    # coefficients are c0^lam (lam)_k conj(b)^k / k!
    b, u = 0.8 * np.exp(0.7j), np.exp(0.3j)
    phi = domains.MobiusMap(DISC, np.array([b]), np.array([[u]]))
    uf = spaces.u_lambda_disc_taylor(phi, SparsePolynomial.constant(1, 1.0), lam, 100)
    want = [complex(np.sqrt(-u * (1.0 - abs(b) ** 2))) ** lam]
    for k in range(1, 101):
        want.append(want[-1] * (lam + k - 1) / k * np.conj(b))
    got = np.array([uf.coeffs.get((k,), 0.0) for k in range(101)])
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# box operator and tube intertwining
# ---------------------------------------------------------------------------

def test_box_halfplane_is_derivative():
    p = SparsePolynomial(1, {(2,): 1.0})
    q = spaces.box_operator(HALF, p)
    assert q.coeffs == {(1,): pytest.approx(2.0)}


def test_box_symreal2_delta_constant():
    d2 = cones.minor_polynomials(SR2)[1]
    q = spaces.box_operator(SR2, d2)
    assert q.degree() == 0
    const = complex(q.eval(np.zeros(3)))
    assert const == pytest.approx(1.5)
    # finite-difference cross-check of Delta(partial) Delta at a point
    h = 1e-3
    z0 = np.array([0.4, -0.1, 0.7])

    def d2v(v):
        return complex(d2.eval(np.asarray(v, dtype=complex)))

    def second(i, j):
        ei = np.eye(3)[i] * h
        ej = np.eye(3)[j] * h
        return (d2v(z0 + ei + ej) - d2v(z0 + ei - ej)
                - d2v(z0 - ei + ej) + d2v(z0 - ei - ej)) / (4 * h * h)

    fd = second(0, 2) - 0.5 * second(1, 1)
    assert fd.real == pytest.approx(1.5, abs=1e-6)


def test_box_rejects_non_tube():
    with pytest.raises(ValueError):
        spaces.box_operator(BALL2, SparsePolynomial.constant(2, 1.0))


def test_intertwine_tube_symreal2():
    rng = np.random.default_rng(17)
    lam = SR2.dim_m / SR2.rank - 2.0  # box applied twice
    maps = [rand_affine(SR2, rng) for _ in range(3)]
    pts = rand_siegel_grid(SR2, rng, 6)
    f = rand_poly(3, 4, rng)
    assert spaces.intertwine_check_tube(SR2, f, lam, maps, pts) < 1e-8


def test_intertwine_tube_halfplane_first_order():
    rng = np.random.default_rng(18)
    maps = [rand_affine(HALF, rng) for _ in range(3)]
    pts = [half_pt(0.3 + 1.2j), half_pt(-0.8 + 0.4j)]
    f = rand_poly(1, 5, rng)
    assert spaces.intertwine_check_tube(HALF, f, 0.0, maps, pts) < 1e-10


def test_intertwine_tube_needs_lattice_parameter():
    with pytest.raises(ValueError):
        spaces.intertwine_check_tube(SR2, rand_poly(3, 2), 0.3, [], [])


# ---------------------------------------------------------------------------
# Cayley transport
# ---------------------------------------------------------------------------

def kernel_rows(lam, w):
    """The batch evaluator of K_lambda(., w) on bounded chart rows."""
    return lambda V: np.exp(-lam * domains.log_h_pairs(w.alg, V, w.as_vector()[None]))[:, 0]


def transport_factor(lam, w):
    """Delta^(-lambda)((z + ie)/2i) by cones.delta_power_complex, the
    per-point reference for the factor of transport_to_siegel."""
    arg = (w.z + 1j * eja.identity(w.alg)) * (1.0 / 2j)
    return cones.delta_power_complex(arg, np.full(w.alg.rank, -float(lam)))


def test_transport_preserves_kernel_pairings():
    # the transported kernel atom reproduces the Siegel kernel values up to
    # the fixed unitary constant, checked through two independent points
    lam = 3.0
    w = disc_pt(0.2 - 0.1j)
    f = spaces.HolFunction(DISC, kernel_rows(lam, w),
                           taylor=fischer.kernel_taylor(lam, w, 40))
    fs = spaces.transport_to_siegel(f, lam)
    cw = domains.cayley(w)
    for z in (0.3 + 0.05j, -0.25 + 0.2j):
        zs = domains.cayley(disc_pt(z))
        want = (domains.kernel_siegel(lam, zs, cw)
                / transport_factor(lam, cw).conjugate())
        assert fs(zs) == pytest.approx(want, rel=1e-10)


TUBES = [eja.sym_real(1), eja.sym_real(2), eja.sym_real(3), eja.herm_complex(1),
         eja.herm_complex(2), eja.herm_complex(3), eja.herm_quaternion(2),
         eja.herm_quaternion(3), eja.spin_factor(4), eja.spin_factor(5)]


def test_transport_batch_matches_per_point_evaluator():
    # one batched inverse Cayley transform and log Delta per stack against
    # the closed-form inverse and delta_power_complex point by point, on
    # Siegel draws; a point is evaluated as a stack of one row
    rng = np.random.default_rng(23)
    for alg in TUBES:
        fb = spaces.poly_function(alg, rand_poly(alg.dim_m, 2, rng))
        f = spaces.transport_to_siegel(fb, 2.5)
        V = domains.sample_siegel(alg, 8, rng)
        pts = [domains.siegel_from_vector(alg, v) for v in V]
        want = [fb.taylor.eval(cayley_closed_form.inverse_cayley(alg, v))
                * transport_factor(2.5, p) for v, p in zip(V, pts)]
        assert np.allclose(f.batch(V), want, rtol=1e-12, atol=0.0), alg
        assert np.allclose([f(p) for p in pts], want, rtol=1e-12, atol=0.0), alg


def test_taylor_backed_function_consistency():
    lam = 1.5
    w = disc_pt(0.3)
    f = spaces.HolFunction(DISC, kernel_rows(lam, w),
                           taylor=fischer.kernel_taylor(lam, w, 30))
    for z in (0.0, 0.2, -0.15 + 0.1j):
        tv = complex(f.taylor.eval(np.array([z], dtype=complex)))
        assert tv == pytest.approx(f(disc_pt(z)), abs=1e-10)
