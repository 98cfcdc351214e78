"""End-to-end acceptance battery.

One test per claim, so `pytest -v` prints one pass/fail line each.  Criteria
with a wall-clock budget assert the elapsed time too.  All seeds are fixed.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

import cayley_closed_form
from symcone import cones, domains, eja, fischer, spaces, wallach
from symcone.cli import main as cli_main
from symcone.eja import Element
from symcone.poly import SparsePolynomial

DISC = eja.herm_complex(1, 1)
BALL2 = eja.herm_complex(1, 2)
SR2 = eja.sym_real(2)
SPIN4 = eja.spin_factor(4)
Z = SparsePolynomial.variable(1, 0)


def dense_poly(nv, deg, rng):
    p = SparsePolynomial.zero(nv)
    for d in range(deg + 1):
        for alpha in fischer.homogeneous_monomials(nv, d):
            p.coeffs[alpha] = rng.normal() + 1j * rng.normal()
    return p


def rand_affine(alg, rng, spread=0.5):
    zeta0 = None
    if alg.siegel_n:
        shape = (alg.size, alg.cols - alg.size)
        zeta0 = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    x0 = Element(alg, spread * rng.normal(size=alg.dim_m))
    tri = domains._triangular_from_params(alg, spread * rng.normal(size=alg.dim_m))
    return domains.AffineMap(alg, zeta0, x0, tri)


def rand_bounded_scaled(alg, rng, radius):
    d = alg.zdim
    v = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
    p = domains.bounded_from_vector(alg, v)
    s = domains.spectral_norm(p)
    return domains.bounded_from_vector(
        alg, v * (radius * rng.uniform(0.1, 1.0) / max(s, 1e-12)))


def test_01_rank1_positivity_classification():
    # PSD on {0, 0.5, 1, 2, 3}: every one of 500 sampled Grams of at most 6
    # disc points; witnesses below -1e-8 * ||G|| at -0.5 and -1; under 30 s
    t0 = time.perf_counter()
    for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            V = np.array([domains.sample_bounded(DISC, rng) for _ in range(n)])
            G = spaces.gram_matrix(lam, DISC, V)
            nrm = float(np.linalg.norm(G, 2))
            assert float(np.linalg.eigvalsh(G)[0]) >= -1e-10 * max(nrm, 1e-300)
    for lam in (-0.5, -1.0):
        rep = spaces.wallach_search(lam, DISC, 500, np.random.default_rng(102))
        assert rep.verdict == "NotPSD"
        assert rep.ratio < -spaces.PSD_HARD
    assert time.perf_counter() - t0 < 30.0


def test_02_rank2_positivity_classification():
    # continuous part and lattice point 0.5 stay PSD; the gap between the
    # lattice and the continuous threshold yields witnesses; under 3 min
    t0 = time.perf_counter()
    for i, lam in enumerate((0.0, 0.5, 0.75, 1.0, 3.0)):
        rep = spaces.wallach_search(lam, SR2, 2000,
                                    np.random.default_rng(200 + i))
        assert rep.verdict == "PSD", (lam, rep.ratio)
    for i, lam in enumerate((0.1, 0.25, 0.4)):
        rep = spaces.wallach_search(lam, SR2, 2000,
                                    np.random.default_rng(210 + i))
        assert rep.verdict == "NotPSD", (lam, rep.ratio)
        assert rep.ratio < -spaces.PSD_HARD
    rep = spaces.wallach_search(0.25, SR2, 2000, np.random.default_rng(220),
                                realization="siegel")
    assert rep.verdict == "NotPSD"
    assert time.perf_counter() - t0 < 180.0


def test_03_series_norm_reproduces_kernel():
    # <K_w, K_w'> summed signature by signature against the closed kernel,
    # 50 random pairs per family with |w|, |w'| <= 0.6; under 5 min
    t0 = time.perf_counter()
    for alg, trunc, lam in ((DISC, 60, 1.5), (SR2, 12, 2.5), (SPIN4, 12, 3.0)):
        rng = np.random.default_rng(300)
        proj = fischer.projector(alg)
        for _ in range(50):
            w = rand_bounded_scaled(alg, rng, 0.6)
            wp = rand_bounded_scaled(alg, rng, 0.6)
            kw = fischer.kernel_taylor(lam, w, trunc)
            kwp = fischer.kernel_taylor(lam, wp, trunc)
            got, shell = spaces.h_lambda_inner(kw, kwp, lam, alg, trunc,
                                               cache=proj)
            want = domains.kernel_bounded(lam, wp, w)
            assert abs(got - want) <= max(1e-6, shell)
    assert time.perf_counter() - t0 < 300.0


def test_04_hardy_normalization():
    # exact series value 1 for every monomial up to degree 40, then the
    # boundary Monte Carlo estimate within 1% at 1e6 samples
    for k in range(1, 41):
        got, _ = spaces.h_lambda_inner(Z ** k, Z ** k, 1.0, DISC, 41)
        assert got.real == pytest.approx(1.0, rel=1e-12)
        assert abs(got.imag) < 1e-13
    rng = np.random.default_rng(400)
    for k in (1, 3, 7, 15):
        f = spaces.poly_function(DISC, Z ** k)
        est = spaces.hardy_norm_mc(f, DISC, 1_000_000, rng)
        assert abs(est - 1.0) <= 0.01


def test_05_bergman_norm_proportional_to_series_norm():
    # lambda = genus + 1 on both realizations; the MC/series ratio agrees
    # across 5 fixed polynomials within 5% at 1e6 importance samples
    rng = np.random.default_rng(500)
    one = SparsePolynomial.constant(1, 1.0)
    ratios = []
    for p in (one, Z, Z ** 2, Z ** 3, one + Z):
        f = spaces.poly_function(DISC, p)
        est, _ = spaces.bergman_norm_mc(f, 3.0, DISC, 1_000_000, rng)
        ratios.append(est ** 2 / spaces.h_lambda_norm_sq(p, 3.0, DISC, 12)[0])
    mid = float(np.median(ratios))
    assert max(abs(r / mid - 1.0) for r in ratios) <= 0.05

    z0, z1, z2 = (SparsePolynomial.variable(3, i) for i in range(3))
    one3 = SparsePolynomial.constant(3, 1.0)
    ratios = []
    for p in (one3, z0, z1, z0 * z2, one3 + z1):
        fb = spaces.poly_function(SR2, p)
        fs = spaces.transport_to_siegel(fb, 4.0)
        est, _ = spaces.bergman_norm_mc(fs, 4.0, SR2, 1_000_000, rng,
                                        realization="siegel")
        ratios.append(est ** 2 / spaces.h_lambda_norm_sq(p, 4.0, SR2, 8)[0])
    mid = float(np.median(ratios))
    assert max(abs(r / mid - 1.0) for r in ratios) <= 0.05


def test_06_dirichlet_seminorm():
    # seminorm^2 of z^k proportional to k, constant fitted on k = 1 only;
    # then the gradient quadrature matches within 1% on random polynomials
    c = spaces.h_tilde_seminorm(Z, 0.0, DISC, 4) ** 2
    for k in range(1, 11):
        sem2 = spaces.h_tilde_seminorm(Z ** k, 0.0, DISC, 12) ** 2
        assert abs(sem2 - c * k) <= 1e-9 * max(c * k, 1.0)
    rng = np.random.default_rng(600)
    r = (np.arange(240) + 0.5) / 240
    th = 2.0 * np.pi * np.arange(64) / 64
    zs = np.outer(r, np.exp(1j * th)).ravel()[:, None]
    wts = np.repeat(r, 64) / 240 * (2 * np.pi / 64)
    for _ in range(10):
        f = dense_poly(1, 6, rng)
        sem2 = spaces.h_tilde_seminorm(f, 0.0, DISC, 12) ** 2
        quad = float(np.sum(np.abs(f.derivative(0).eval(zs)) ** 2 * wts))
        assert abs(quad / (np.pi * c * sem2) - 1.0) <= 0.01


def test_07_derivative_intertwining():
    rng = np.random.default_rng(700)
    pts = [0.0, 0.3, -0.25 + 0.2j, 0.1 - 0.35j]
    for lam in (0, -1, -2):
        for _ in range(20):
            phi = domains.mobius_sample(DISC, rng)
            f = dense_poly(1, 6, rng)
            assert spaces.intertwine_check_disc(phi, f, lam, pts) < 1e-9
    lam = SR2.dim_m / SR2.rank - 2.0
    maps = [rand_affine(SR2, rng) for _ in range(5)]
    tpts = [domains.siegel_from_vector(SR2, v)
            for v in domains.sample_siegel(SR2, 6, rng)]
    f = dense_poly(3, 4, rng)
    assert spaces.intertwine_check_tube(SR2, f, lam, maps, tpts) < 1e-8


def test_08_signature_projector_suite():
    for alg in (BALL2, SR2, SPIN4):
        proj = fischer.projector(alg)
        rng = np.random.default_rng(800)
        f = dense_poly(alg.zdim, 6, rng)
        f = f * (1.0 / fischer.fischer_norm(f))
        sigs = list(wallach.enumerate_signatures(alg.rank, 6))
        parts = {s: proj.project(f, s) for s in sigs}
        total = SparsePolynomial.zero(alg.zdim)
        for p in parts.values():
            total = total + p
        assert fischer.fischer_norm(total - f) <= 1e-8
        for s in sigs:
            again = proj.project(parts[s], s)
            assert fischer.fischer_norm(again - parts[s]) <= 1e-8
        for i, s in enumerate(sigs):
            for t in sigs[i + 1:]:
                assert abs(fischer.fischer_inner(parts[s], parts[t])) <= 1e-8
    proj = fischer.projector(BALL2)
    for k in range(7):
        assert proj.dim((k,)) == k + 1


def test_09_geometry_suite():
    # Cayley roundtrip at 1000 interior points per family, back through
    # the closed-form inverse
    for alg in (DISC, SR2, eja.herm_complex(2, 3), eja.herm_quaternion(2),
                SPIN4):
        rng = np.random.default_rng(900)
        worst = 0.0
        for _ in range(1000):
            p = rand_bounded_scaled(alg, rng, 0.9)
            back = cayley_closed_form.inverse_cayley(
                alg, domains.cayley(p).as_vector())
            worst = max(worst, float(np.max(np.abs(back - p.as_vector()))))
        assert worst < 1e-10, alg.family

    # kernel transformation law under the sampled Mobius maps
    for alg in (DISC, BALL2):
        rng = np.random.default_rng(901)
        g = float(alg.genus)
        for _ in range(50):
            phi = domains.mobius_sample(alg, rng)
            z = rand_bounded_scaled(alg, rng, 0.7)
            w = rand_bounded_scaled(alg, rng, 0.7)
            lhs = domains.kernel_bounded(g, z, w)
            rhs = (domains.mobius_jacobian(phi, z)
                   * domains.kernel_bounded(g, domains.mobius_apply(phi, z),
                                            domains.mobius_apply(phi, w))
                   * np.conj(domains.mobius_jacobian(phi, w)))
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    # translations leave Im z - Phi(zeta) fixed; triangular maps conjugate it
    rng = np.random.default_rng(902)
    for _ in range(20):
        p = domains.siegel_from_vector(SR2, domains.sample_siegel(SR2, 1, rng)[0])
        d0 = domains.siegel_defect(p)
        x0 = Element(SR2, rng.normal(size=3))
        hp = domains.heisenberg_apply(SR2, None, x0, p)
        d1 = domains.siegel_defect(hp)
        assert np.max(np.abs(d1.coords - d0.coords)) <= \
            1e-12 * max(1.0, float(np.max(np.abs(d0.coords))))
        m = rand_affine(SR2, rng)
        want = cones.t_action(m.tri, d0)
        got = domains.siegel_defect(domains.affine_apply(m, p))
        assert np.max(np.abs(got.coords - want.coords)) <= \
            1e-12 * max(1.0, float(np.max(np.abs(want.coords))))

    # the weighted sup estimator is carried exactly by the lambda-action
    lam = 4.0
    f = spaces.siegel_kernel_atom(lam, domains.siegel_base_point(SR2))
    grid = [domains.siegel_from_vector(SR2, v)
            for v in domains.sample_siegel(SR2, 25, rng)]
    base = spaces.sup_norm_max_space(f, lam, grid)
    for _ in range(3):
        phi = rand_affine(SR2, rng)
        moved = spaces.u_lambda_affine(f, phi, lam)
        grid2 = [domains.affine_apply(phi, q) for q in grid]
        assert spaces.sup_norm_max_space(moved, lam, grid2) == \
            pytest.approx(base, rel=1e-12)


def test_10_report_determinism(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    blobs = []
    for _ in range(2):
        res = runner.invoke(cli_main, ["verify", "all", "--seed", "7",
                                       "--output", str(out)],
                            catch_exceptions=False)
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
