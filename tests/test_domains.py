"""Bounded/Siegel realizations: membership, Cayley, kernels, actions, samplers."""

import functools

import numpy as np
import pytest

import cayley_closed_form
from symcone import cones, domains, eja
from symcone.domains import BoundedPoint, SiegelPoint
from symcone.eja import Element

RNG = np.random.default_rng(20240814)

ALGS = [
    eja.sym_real(1),
    eja.sym_real(2),
    eja.sym_real(3),
    eja.herm_complex(2),
    eja.herm_complex(1, 2),
    eja.herm_complex(2, 3),
    eja.herm_quaternion(2),
    eja.spin_factor(4),
    eja.spin_factor(5),
]

DISC = eja.sym_real(1)
BALL2 = eja.herm_complex(1, 2)


def rand_bounded(alg, rng, radius=0.9):
    """Interior point at a random fraction of the spectral radius."""
    d = alg.dim_m + alg.siegel_n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    p = domains.bounded_from_vector(alg, v)
    s = domains.spectral_norm(p)
    r = radius * rng.uniform(0.1, 1.0)
    return domains.bounded_from_vector(alg, v * (r / s))


def rand_siegel(alg, rng):
    return domains.siegel_from_vector(alg, domains.sample_siegel(alg, 1, rng)[0])


def origin(alg):
    return BoundedPoint(alg, Element(alg, np.zeros(alg.dim_m, dtype=complex)))


# ---------------------------------------------------------------------------
# spectral norm and membership
# ---------------------------------------------------------------------------

def test_spectral_norm_of_idempotents_and_scaling():
    for alg in ALGS:
        e = eja.identity(alg).as_complex()
        assert domains.spectral_norm(BoundedPoint(alg, e)) == pytest.approx(1.0)
        assert domains.spectral_norm(BoundedPoint(alg, 0.5 * e)) == pytest.approx(0.5)


def test_spectral_norm_matches_triple_operator_norm():
    # oracle: largest eigenvalue of v -> {z, z, v}
    for alg in ALGS:
        p = rand_bounded(alg, RNG, radius=2.0)
        if alg.family == "herm_complex":
            Z = p.full_matrix()
            dim = alg.size * alg.cols
            D = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                V = np.zeros(alg.size * alg.cols, dtype=complex)
                V[k] = 1.0
                V = V.reshape(alg.size, alg.cols)
                D[:, k] = eja.triple_product_full(alg, Z, Z, V).ravel()
        else:
            dim = alg.dim_m
            D = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                v = np.zeros(dim, dtype=complex)
                v[k] = 1.0
                col = eja.triple_product(p.z1, p.z1, eja.from_zchart(alg, v))
                D[:, k] = eja.to_zchart(col)
            # the z-chart is unitary for the hermitian pairing, D is hermitian
        lam = np.linalg.eigvalsh((D + D.conj().T) / 2.0)[-1]
        assert domains.spectral_norm(p) == pytest.approx(np.sqrt(lam), rel=1e-9)


def test_bounded_membership():
    for alg in ALGS:
        e = eja.identity(alg).as_complex()
        assert domains.in_bounded_domain(origin(alg))
        assert not domains.in_bounded_domain(BoundedPoint(alg, e))
        assert domains.in_bounded_domain(BoundedPoint(alg, 0.99 * e))


def _box_rows(alg, rng, n):
    """n proposals of sample_bounded's box, as chart rows."""
    c, d = domains._BOX_SCALE[alg.family], alg.zdim
    return c * (rng.uniform(-1, 1, size=(n, d)) + 1j * rng.uniform(-1, 1, size=(n, d)))


@pytest.mark.parametrize("alg", ALGS, ids=str)
def test_spectral_norm_of_a_row_matches_its_point_bitwise(alg):
    # ALGS holds the rank-2 non-tube herm_complex(2, 3), whose rows carry a
    # half-space block; half the rows are rescaled to within 1e-13 of the
    # membership threshold, where a last-bit difference would flip a verdict.
    # The (n, d) stack, its slices of every length and each row alone and
    # as its point give the same bits
    rng = np.random.default_rng(41)
    edge = 1.0 - domains.BOUNDARY_TOL
    rows = _box_rows(alg, rng, 200)
    for v, t in zip(rows[:100], rng.uniform(-1e-13, 1e-13, 100)):
        v *= (edge + t) / domains.spectral_norm(v, alg)
    stack = domains.spectral_norm(rows, alg)
    assert stack.shape == (200,)
    inside = []
    for i, v in enumerate(rows):
        p = domains.bounded_from_vector(alg, v)
        assert domains.spectral_norm(v, alg) == domains.spectral_norm(p) == stack[i]
        inside.append(domains.in_bounded_domain(v, alg=alg))
        assert inside[-1] == domains.in_bounded_domain(p)
    assert np.array_equal(domains.in_bounded_domain(rows, alg=alg), inside)
    for n in (1, 2, 3, 8, 17):
        for i in range(0, 200 - n, 37):
            assert np.array_equal(domains.spectral_norm(rows[i:i + n], alg),
                                  stack[i:i + n])
    assert np.abs(stack[:100] - edge).max() < 2e-13
    assert 0 < sum(inside[:100]) < 100


def test_points_keep_the_rows_of_nearly_real_points():
    # a row 1e-11 or 1e-12 off the real points comes back from the point's
    # as_vector(): the element is complex, no imaginary part is dropped
    for alg, v in ((eja.herm_complex(1), [0.1 + 1e-11j]),
                   (eja.sym_real(2), [0.1 + 1e-11j, -0.2, 0.3 - 1e-12j])):
        v = np.array(v)
        for make in (domains.bounded_from_vector, domains.siegel_from_vector):
            assert np.abs(make(alg, v).as_vector() - v).max() <= 1e-15


# ---------------------------------------------------------------------------
# Phi and Siegel membership
# ---------------------------------------------------------------------------

def test_phi_form_closed_form_and_positivity():
    alg = eja.herm_complex(2, 4)
    for _ in range(20):
        z = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        w = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        phi = domains.phi_form(alg, z, w)
        assert np.allclose(eja.embed_matrix(phi), z @ w.conj().T)
        ev = np.linalg.eigvalsh(eja.embed_matrix(domains.phi_form(alg, z, z)))
        assert ev[0] > -1e-12
    assert np.allclose(domains.phi_form(alg, np.zeros((2, 2)), w).coords, 0.0)


def test_phi_form_is_twice_triple_product_with_identity():
    alg = eja.herm_complex(2, 3)
    e_full = eja.full_matrix(eja.identity(alg).as_complex(),
                             np.zeros((2, 1), dtype=complex))
    for _ in range(10):
        z = RNG.normal(size=(2, 1)) + 1j * RNG.normal(size=(2, 1))
        w = RNG.normal(size=(2, 1)) + 1j * RNG.normal(size=(2, 1))
        Zf = np.concatenate([np.zeros((2, 2)), z], axis=1)
        Wf = np.concatenate([np.zeros((2, 2)), w], axis=1)
        got = 2.0 * eja.triple_product_full(alg, Zf, Wf, e_full)
        phi = domains.phi_form(alg, z, w)
        want = eja.full_matrix(phi, np.zeros((2, 1), dtype=complex))
        assert np.allclose(got, want, atol=1e-12)


def test_phi_ball_is_scalar_product():
    alg = BALL2
    z = np.array([[0.3 + 0.1j]])
    w = np.array([[0.2 - 0.5j]])
    phi = domains.phi_form(alg, z, w)
    assert phi.coords[0] == pytest.approx(z[0, 0] * np.conj(w[0, 0]))


def test_siegel_membership():
    for alg in ALGS:
        assert domains.in_siegel_domain(domains.siegel_base_point(alg))
        zero = SiegelPoint(alg, None, Element(alg, np.zeros(alg.dim_m, dtype=complex)))
        assert not domains.in_siegel_domain(zero)
    # ball: Im z = |zeta|^2 + 1 is interior
    zeta = np.array([[0.7 + 0.2j]])
    z = Element(BALL2, np.array([1j * (abs(zeta[0, 0]) ** 2 + 1.0)]))
    assert domains.in_siegel_domain(SiegelPoint(BALL2, zeta, z))


def test_tube_types_reject_halfspace_blocks():
    with pytest.raises(ValueError):
        domains.phi_form(DISC, np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        BoundedPoint(eja.spin_factor(4),
                     Element(eja.spin_factor(4), np.zeros(4, dtype=complex)),
                     np.array([[1.0]]))
    sr2 = eja.sym_real(2)
    with pytest.raises(ValueError):
        domains.AffineMap(sr2, np.array([[1.0], [0.0]]), Element(sr2, np.zeros(3)),
                          domains._triangular_from_params(sr2, np.zeros(3)))


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def test_cayley_at_zero_and_disc_value():
    for alg in ALGS:
        img = domains.cayley(origin(alg))
        assert np.allclose(img.z.coords, 1j * eja.identity(alg).coords)
        if alg.siegel_n:
            assert np.allclose(img.zeta, 0.0)
    half = BoundedPoint(DISC, Element(DISC, np.array([0.5 + 0j])))
    assert domains.cayley(half).z.coords[0] == pytest.approx(3j)


def test_cayley_roundtrip_and_membership():
    # cayley, then the closed-form inverse
    for alg in ALGS:
        worst = 0.0
        for _ in range(120):
            p = rand_bounded(alg, RNG, radius=0.97)
            s = domains.cayley(p)
            assert domains.in_siegel_domain(s)
            back = cayley_closed_form.inverse_cayley(alg, s.as_vector())
            worst = max(worst, np.max(np.abs(back - p.as_vector())))
        assert worst < 1e-10


def test_cayley_inverse_from_siegel_side():
    # inverse_cayley, then the closed-form transform
    for alg in ALGS:
        for _ in range(40):
            s = rand_siegel(alg, RNG)
            p = domains.inverse_cayley(s)
            assert domains.in_bounded_domain(p, tol=0.0)
            s2 = cayley_closed_form.cayley(alg, p.as_vector())
            assert np.allclose(s2, s.as_vector(), atol=1e-8)


def test_cayley_pole_raises():
    e = eja.identity(DISC).as_complex()
    with pytest.raises(ValueError, match="e - z1"):
        domains.cayley(BoundedPoint(DISC, e))
    with pytest.raises(ValueError, match="w \\+ ie"):
        domains.inverse_cayley(SiegelPoint(DISC, None, -1j * e))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_siegel_base_point_and_disc_value():
    for alg in ALGS:
        base = domains.siegel_base_point(alg)
        assert domains.kernel_siegel(1.7, base, base) == pytest.approx(1.0)
    zi = domains.siegel_base_point(DISC)
    assert domains.kernel_siegel(2.0, zi, zi) == pytest.approx(1.0)


def test_kernel_siegel_hermitian_symmetry():
    for alg in ALGS:
        for _ in range(10):
            p, q = rand_siegel(alg, RNG), rand_siegel(alg, RNG)
            a = domains.kernel_siegel(1.3, p, q)
            b = domains.kernel_siegel(1.3, q, p)
            assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_kernel_bounded_normalization_and_symmetry():
    for alg in ALGS:
        o = origin(alg)
        for _ in range(6):
            z = rand_bounded(alg, RNG)
            w = rand_bounded(alg, RNG)
            assert domains.kernel_bounded(1.37, z, o) == pytest.approx(1.0, abs=1e-10)
            a = domains.kernel_bounded(1.37, z, w)
            b = domains.kernel_bounded(1.37, w, z)
            assert a == pytest.approx(np.conj(b), rel=1e-9)


def test_kernel_bounded_disc_closed_form():
    lam = 1.0
    for _ in range(20):
        z = rand_bounded(DISC, RNG)
        w = rand_bounded(DISC, RNG)
        zc, wc = z.z1.coords[0], w.z1.coords[0]
        want = (1.0 - zc * np.conj(wc)) ** (-lam)
        assert domains.kernel_bounded(lam, z, w) == pytest.approx(want, rel=1e-10)
    # non-integer power against the principal branch (|1 - z conj w| close to 1)
    z = domains.bounded_from_vector(DISC, np.array([0.5 + 0.3j]))
    w = domains.bounded_from_vector(DISC, np.array([-0.4 + 0.2j]))
    h = 1.0 - z.z1.coords[0] * np.conj(w.z1.coords[0])
    assert domains.kernel_bounded(0.7, z, w) == pytest.approx(h ** -0.7, rel=1e-10)


def test_kernel_bounded_type_one_diagonal_example():
    alg = eja.herm_complex(2)
    for x in (0.3, -0.6, 0.85):
        z1 = eja.unembed_matrix(alg, np.diag([x, 0.0]).astype(complex))
        p = BoundedPoint(alg, z1)
        got = domains.kernel_bounded(4.0, p, p)
        assert got == pytest.approx((1.0 - x * x) ** -4.0, rel=1e-10)


def test_kernel_bounded_tube_matches_generic_norm():
    # closed-form log h against generic_norm, principal branch at small radius
    lam = 1.3
    for alg in [eja.sym_real(2), eja.sym_real(3), eja.herm_quaternion(2),
                eja.spin_factor(4), eja.spin_factor(5)]:
        for _ in range(8):
            z = rand_bounded(alg, RNG, radius=0.45)
            w = rand_bounded(alg, RNG, radius=0.45)
            h = domains.generic_norm(z, w)
            got = domains.kernel_bounded(lam, z, w)
            assert got == pytest.approx(h ** (-lam), rel=1e-8)


def test_kernel_bounded_rejects_points_outside_the_domain():
    rng = np.random.default_rng(5)
    for alg in ALGS:
        d = alg.dim_m + alg.siegel_n
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = domains.spectral_norm(domains.bounded_from_vector(alg, v))
        z = domains.bounded_from_vector(alg, 1.2 * v / s)
        with pytest.raises(ValueError):
            domains.kernel_bounded(1.3, z, z)


def cayley_cross_ratio(lam, z, w):
    """Siegel kernel carried through the Cayley transform: in the cross ratio
    the Jacobian powers cancel, and S(C0, C0) = 1."""
    cz, cw = domains.cayley(z), domains.cayley(w)
    c0 = domains.siegel_base_point(z.alg)
    num = domains.kernel_siegel(lam, cz, cw) * domains.kernel_siegel(lam, c0, c0)
    den = domains.kernel_siegel(lam, cz, c0) * domains.kernel_siegel(lam, c0, cw)
    return num / den


def test_kernel_bounded_matches_cayley_cross_ratio():
    rng = np.random.default_rng(31)
    for alg in [eja.sym_real(2), eja.sym_real(3), eja.herm_quaternion(2),
                eja.spin_factor(4), eja.spin_factor(5)]:
        for radius in (0.45, 0.9, 0.99):
            for _ in range(4):
                z = rand_bounded(alg, rng, radius=radius)
                w = rand_bounded(alg, rng, radius=radius)
                for lam in (-1.0, 0.5, 1.3, 2.5, 7.0):
                    want = cayley_cross_ratio(lam, z, w)
                    got = domains.kernel_bounded(lam, z, w)
                    assert abs(got - want) <= 1e-10 * abs(want)


def test_kernel_power_additivity_quaternion():
    alg = eja.herm_quaternion(2)
    for _ in range(5):
        z = rand_bounded(alg, RNG)
        w = rand_bounded(alg, RNG)
        a = domains.kernel_bounded(0.9, z, w)
        b = domains.kernel_bounded(1.4, z, w)
        c = domains.kernel_bounded(2.3, z, w)
        assert a * b == pytest.approx(c, rel=1e-9)


def bergman_operator_det(z: BoundedPoint, w: BoundedPoint) -> complex:
    """det of v -> v - 2{z, w, v} + {z, {w, v, w}, z} over the full chart."""
    alg = z.alg
    if alg.family == "herm_complex":
        Z, W = z.full_matrix(), w.full_matrix()
        dim = alg.size * alg.cols
        B = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            V = np.zeros(dim, dtype=complex)
            V[k] = 1.0
            V = V.reshape(alg.size, alg.cols)
            out = (V - 2.0 * eja.triple_product_full(alg, Z, W, V)
                   + eja.triple_product_full(
                       alg, Z, eja.triple_product_full(alg, W, V, W), Z))
            B[:, k] = out.ravel()
        return complex(np.linalg.det(B))
    dim = alg.dim_m
    B = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        ve = eja.from_zchart(alg, v)
        out = (ve - 2.0 * eja.triple_product(z.z1, w.z1, ve)
               + eja.triple_product(
                   z.z1, eja.triple_product(w.z1, ve, w.z1), z.z1))
        B[:, k] = eja.to_zchart(out)
    return complex(np.linalg.det(B))


def test_generic_norm_against_bergman_determinant():
    # det B(z, w) = h(z, w)^genus: integer power, no branch ambiguity
    for alg in ALGS:
        for _ in range(5):
            z = rand_bounded(alg, RNG, radius=0.7)
            w = rand_bounded(alg, RNG, radius=0.7)
            h = domains.generic_norm(z, w)
            detB = bergman_operator_det(z, w)
            assert detB == pytest.approx(h ** alg.genus, rel=1e-8)


def test_generic_norm_at_zero_and_hermitian():
    for alg in ALGS:
        z = rand_bounded(alg, RNG)
        assert domains.generic_norm(z, origin(alg)) == pytest.approx(1.0)
        w = rand_bounded(alg, RNG)
        assert domains.generic_norm(z, w) == pytest.approx(
            np.conj(domains.generic_norm(w, z)), rel=1e-10)


# ---------------------------------------------------------------------------
# the all-pairs kernel routines on row stacks
# ---------------------------------------------------------------------------

# the tube families of test_spaces.TUBES, then two non-tube herm_complex
ROW_ALGS = [eja.sym_real(1), eja.sym_real(2), eja.sym_real(3), eja.herm_complex(1),
            eja.herm_complex(2), eja.herm_complex(3), eja.herm_quaternion(2),
            eja.herm_quaternion(3), eja.spin_factor(4), eja.spin_factor(5),
            eja.herm_complex(1, 2), eja.herm_complex(2, 3)]


def bounded_stack(alg, rng, n, radius=0.9):
    return np.array([rand_bounded(alg, rng, radius).as_vector() for _ in range(n)])


@pytest.mark.parametrize("alg", ROW_ALGS, ids=str)
def test_log_h_pairs_against_generic_norm(alg):
    # exp of the all-pairs log h against the determinant, Pfaffian or spin
    # polynomial of generic_norm pair by pair; at radius 0.45 the log is
    # also the principal one, which fixes the branch
    rng = np.random.default_rng(43)
    for radius in (0.45, 0.9):
        V, W = bounded_stack(alg, rng, 4, radius), bounded_stack(alg, rng, 3, radius)
        L = domains.log_h_pairs(alg, V, W)
        assert L.shape == (4, 3)
        for i, v in enumerate(V):
            for j, w in enumerate(W):
                z = domains.bounded_from_vector(alg, v)
                x = domains.bounded_from_vector(alg, w)
                h = domains.generic_norm(z, x)
                assert abs(np.exp(L[i, j]) - h) <= 1e-12 * abs(h)
                if radius < 0.5:
                    assert abs(L[i, j] - np.log(h)) <= 1e-12
                assert domains.kernel_bounded(1.3, z, x) == pytest.approx(
                    np.exp(-1.3 * L[i, j]), rel=1e-14)


@pytest.mark.parametrize("alg", ROW_ALGS, ids=str)
def test_siegel_log_delta_pairs_against_delta_power_complex(alg):
    # the reference forms each argument from the points' coordinates and
    # takes cones.delta_power_complex: the principal log of the top minor
    # at rank <= 2, _log_rhp_det above
    rng = np.random.default_rng(44)
    lam = 1.3
    V = domains.cayley_rows(alg, bounded_stack(alg, rng, 4))[0]
    W = domains.cayley_rows(alg, bounded_stack(alg, rng, 3))[0]
    L = domains.siegel_log_delta_pairs(alg, V, W)
    for i, v in enumerate(V):
        for j, w in enumerate(W):
            p = domains.siegel_from_vector(alg, v)
            q = domains.siegel_from_vector(alg, w)
            arg = Element(alg, (p.z.coords - np.conj(q.z.coords)) / 2j)
            if alg.siegel_n:
                arg = arg - domains.phi_form(alg, p.zeta, q.zeta)
            want = cones.delta_power_complex(arg, np.full(alg.rank, -lam))
            assert abs(np.exp(-lam * L[i, j]) - want) <= 1e-12 * abs(want)
            assert domains.kernel_siegel(lam, p, q) == pytest.approx(
                np.exp(-lam * L[i, j]), rel=1e-14)


@pytest.mark.parametrize("alg", ROW_ALGS, ids=str)
def test_siegel_log_delta_pairs_keeps_the_continuous_branch(alg):
    # w = ie -+ 10 e pair to (1 + 10i) e, whose Delta = (1 + 10i)^r has an
    # argument of r atan(10), past pi from rank 3 on: there the principal
    # log of the minor leaves the branch that delta_power_complex follows
    e = np.zeros(alg.zdim, dtype=complex)
    e[: alg.dim_m] = eja.to_zchart(eja.identity(alg))
    L = domains.siegel_log_delta_pairs(alg, [1j * e - 10 * e], [1j * e + 10 * e])
    arg = Element(alg, (1 + 10j) * eja.identity(alg).coords)
    want = cones.delta_power_complex(arg, np.full(alg.rank, -1.3))
    assert abs(np.exp(-1.3 * L[0, 0]) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alg", ROW_ALGS, ids=str)
def test_row_kernels_match_cayley_cross_ratio(alg):
    # log h(z, w) = L(cz, cw) + L(c0, c0) - L(cz, c0) - L(c0, cw) with L the
    # Siegel all-pairs log Delta: the Jacobian factors cancel, and both
    # sides are continuous and vanish at z = 0
    rng = np.random.default_rng(45)
    V, W = bounded_stack(alg, rng, 4), bounded_stack(alg, rng, 3)
    c0 = np.zeros((1, alg.zdim), dtype=complex)
    c0[0, : alg.dim_m] = 1j * eja.to_zchart(eja.identity(alg))
    CV, CW = domains.cayley_rows(alg, V)[0], domains.cayley_rows(alg, W)[0]
    want = (domains.siegel_log_delta_pairs(alg, CV, CW)
            + domains.siegel_log_delta_pairs(alg, c0, c0)
            - domains.siegel_log_delta_pairs(alg, CV, c0)
            - domains.siegel_log_delta_pairs(alg, c0, CW))
    assert np.abs(domains.log_h_pairs(alg, V, W) - want).max() <= 1e-12


@pytest.mark.parametrize("alg", ROW_ALGS, ids=str)
def test_log_h_pairs_rejects_pencil_eigenvalues_on_the_unit_circle(alg):
    # z = e against w = e, -e and ie puts a pencil eigenvalue at 1, -1 and
    # -i; one such pair in a stack is enough
    e = np.zeros(alg.zdim, dtype=complex)
    e[: alg.dim_m] = eja.to_zchart(eja.identity(alg))
    for s in (1.0, -1.0, 1j):
        with pytest.raises(ValueError, match="unit circle"):
            domains.log_h_pairs(alg, [0.5 * e, e], [0.3 * e, s * e])
    assert np.isfinite(domains.log_h_pairs(alg, [0.5 * e], [(1 - 1e-9) * e])).all()

# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

def test_mobius_identity_and_involution():
    for alg in (DISC, BALL2, eja.herm_complex(1, 3)):
        z = rand_bounded(alg, RNG)
        ide = domains.mobius_identity(alg)
        assert np.allclose(domains.mobius_apply(ide, z).as_vector(), z.as_vector())
        assert domains.mobius_jacobian(ide, z) == pytest.approx(1.0)
        phi = domains.mobius_sample(alg, RNG)
        inv = domains.MobiusMap(alg, phi.b, np.eye(len(phi.b)))
        once = domains.mobius_apply(inv, z)
        twice = domains.mobius_apply(inv, once)
        assert np.allclose(twice.as_vector(), z.as_vector(), atol=1e-12)
        assert domains.in_bounded_domain(once, tol=0.0)


@pytest.mark.parametrize("alg", [DISC, BALL2, eja.herm_complex(1, 12)], ids=str)
def test_mobius_sample_radius_law(alg):
    # b uniform in the radius-0.8 ball of C^d: P(|b| <= 0.8 r) = r^(2d), so
    # at r = p^(1/(2d)) the share of draws is p within 5 standard errors; the
    # unitary part is unitary
    rng = np.random.default_rng(41)
    n, d = 1000, alg.zdim
    maps = [domains.mobius_sample(alg, rng) for _ in range(n)]
    radius = np.array([np.linalg.norm(phi.b) for phi in maps]) / 0.8
    assert radius.max() < 1.0
    for p in (0.1, 0.5, 0.9):
        share = np.mean(radius <= p ** (0.5 / d))
        assert abs(share - p) <= 5 * np.sqrt(p * (1 - p) / n), p
    for phi in maps[:20]:
        U = phi.unitary
        assert np.abs(U.conj().T @ U - np.eye(d)).max() < 1e-12


def test_mobius_jacobian_disc_value_and_fd():
    b = np.array([0.3 - 0.4j])
    phi = domains.MobiusMap(DISC, b, -np.eye(1))  # z -> (z - b)/(1 - conj(b) z)
    at0 = domains.mobius_jacobian(phi, origin(DISC))
    assert at0 == pytest.approx(1.0 - abs(b[0]) ** 2)
    for alg in (DISC, BALL2):
        phi = domains.mobius_sample(alg, RNG)
        z = rand_bounded(alg, RNG, radius=0.7)
        d = alg.dim_m + alg.siegel_n
        h = 1e-6
        J = np.zeros((d, d), dtype=complex)
        v = z.as_vector()
        for k in range(d):
            dv = np.zeros(d, dtype=complex)
            dv[k] = h
            fp = domains.mobius_apply(phi, domains.bounded_from_vector(alg, v + dv))
            fm = domains.mobius_apply(phi, domains.bounded_from_vector(alg, v - dv))
            J[:, k] = (fp.as_vector() - fm.as_vector()) / (2 * h)
        assert domains.mobius_jacobian(phi, z) == pytest.approx(
            complex(np.linalg.det(J)), rel=1e-5)


def test_mobius_kernel_transformation_law():
    # K(z, w) = J(z) K(phi z, phi w) conj(J(w)) at lambda = genus
    for alg in (DISC, BALL2):
        g = float(alg.genus)
        for _ in range(25):
            phi = domains.mobius_sample(alg, RNG)
            z = rand_bounded(alg, RNG)
            w = rand_bounded(alg, RNG)
            lhs = domains.kernel_bounded(g, z, w)
            rhs = (domains.mobius_jacobian(phi, z)
                   * domains.kernel_bounded(g, domains.mobius_apply(phi, z),
                                            domains.mobius_apply(phi, w))
                   * np.conj(domains.mobius_jacobian(phi, w)))
            assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# affine group and invariant measure
# ---------------------------------------------------------------------------

def rand_affine(alg, rng, spread=0.6):
    zeta0 = None
    if alg.siegel_n:
        shape = (alg.size, alg.cols - alg.size)
        zeta0 = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    x0 = Element(alg, spread * rng.normal(size=alg.dim_m))
    theta = spread * rng.normal(size=alg.dim_m)
    tri = domains._triangular_from_params(alg, theta)
    return domains.AffineMap(alg, zeta0, x0, tri)


def test_heisenberg_preserves_defect_exactly():
    for alg in ALGS:
        for _ in range(10):
            p = rand_siegel(alg, RNG)
            m = rand_affine(alg, RNG)
            moved = domains.heisenberg_apply(alg, m.zeta0, m.x0, p)
            before = domains.siegel_defect(p).coords
            after = domains.siegel_defect(moved).coords
            assert np.allclose(after, before, atol=1e-12 * max(1, np.max(np.abs(before))))


def test_pure_translation_action():
    x0 = Element(DISC, np.array([2.5]))
    p = domains.siegel_base_point(DISC)
    m = domains.AffineMap(DISC, None, x0, cones.identity_triangular(DISC))
    q = domains.affine_apply(m, p)
    assert q.z.coords[0] == pytest.approx(2.5 + 1j)


def test_affine_group_law():
    for alg in ALGS:
        for _ in range(6):
            m1 = rand_affine(alg, RNG)
            m2 = rand_affine(alg, RNG)
            p = rand_siegel(alg, RNG)
            lhs = domains.affine_apply(domains.affine_compose(m1, m2), p)
            rhs = domains.affine_apply(m1, domains.affine_apply(m2, p))
            assert np.allclose(lhs.z.coords, rhs.z.coords, atol=1e-10)
            if alg.siegel_n:
                assert np.allclose(lhs.zeta, rhs.zeta, atol=1e-10)


def test_affine_preserves_domain():
    for alg in ALGS:
        for _ in range(10):
            p = rand_siegel(alg, RNG)
            m = rand_affine(alg, RNG)
            assert domains.in_siegel_domain(domains.affine_apply(m, p), tol=0.0)


def test_affine_chart_acts_on_rows_as_affine_apply():
    # V @ A.T + b against affine_apply point by point, the Heisenberg twist
    # 2i Phi(zeta, zeta0) of the non-tube families included
    rng = np.random.default_rng(37)
    for alg in ALGS:
        m = rand_affine(alg, rng)
        A, b = domains.affine_chart(m)
        V = domains.sample_siegel(alg, 5, rng)
        want = np.array([domains.affine_apply(m, domains.siegel_from_vector(alg, v))
                         .as_vector() for v in V])
        assert np.abs(V @ A.T + b - want).max() <= 1e-12 * np.abs(want).max(), alg


def test_invariant_measure_examples():
    for alg in ALGS:
        assert domains.invariant_measure_density(
            domains.siegel_base_point(alg)) == pytest.approx(1.0)
    p = SiegelPoint(DISC, None, Element(DISC, np.array([0.4 + 2.5j])))
    assert domains.invariant_measure_density(p) == pytest.approx(2.5 ** -2)


def test_invariant_measure_equivariance():
    for alg in ALGS:
        for _ in range(8):
            p = rand_siegel(alg, RNG)
            m = rand_affine(alg, RNG)
            lhs = domains.invariant_measure_density(domains.affine_apply(m, p))
            lhs *= domains.affine_real_jacobian(m)
            rhs = domains.invariant_measure_density(p)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_affine_real_jacobian_matches_fd_volume():
    # spot check on the disc: map z -> t^2 z + x0, real 2d volume factor t^4
    t = domains._triangular_from_params(DISC, np.array([0.3]))
    m = domains.AffineMap(DISC, None, Element(DISC, np.array([1.0])), t)
    want = float(np.exp(0.3 * 2.0)) ** 2
    assert domains.affine_real_jacobian(m) == pytest.approx(want)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_bounded_is_interior():
    for alg in ALGS:
        for _ in range(5):
            v = domains.sample_bounded(alg, RNG)
            assert v.shape == (alg.zdim,)
            assert domains.in_bounded_domain(v, alg=alg)
            assert domains.in_bounded_domain(domains.bounded_from_vector(alg, v))


def _build_then_test(alg, rng):
    """The box loop that builds every proposal's point before testing it;
    the accepted row and its point."""
    c, d = domains._BOX_SCALE[alg.family], alg.zdim
    while True:
        v = c * (rng.uniform(-1, 1, size=d) + 1j * rng.uniform(-1, 1, size=d))
        p = domains.bounded_from_vector(alg, v)
        if domains.in_bounded_domain(p):
            return v, p


@pytest.mark.parametrize("alg", ALGS, ids=str)
def test_sample_bounded_matches_the_build_then_test_loop(alg):
    # the same rows, bit for bit, after the same number of uniform calls;
    # one row where the box accepts 1 in 10 000 or fewer proposals
    got_rng, ref_rng = _CountingRng(42), _CountingRng(42)
    rare = alg in (eja.sym_real(3), eja.spin_factor(5))
    for _ in range(1 if rare else 4):
        got = domains.sample_bounded(alg, got_rng)
        ref, ref_point = _build_then_test(alg, ref_rng)
        assert got_rng.calls == ref_rng.calls
        assert np.array_equal(got, ref)
        assert np.array_equal(domains.bounded_from_vector(alg, got).z1.coords,
                              ref_point.z1.coords)


def test_sample_bounded_tests_each_proposal_once(monkeypatch):
    # the benchmark's domains.sampler_draws counts the in_bounded_domain
    # calls made inside sample_bounded: one per proposal, on its row
    calls = []

    def counted(p, tol=domains.BOUNDARY_TOL, alg=None):
        calls.append(np.shape(p))
        return test(p, tol, alg)

    test = domains.in_bounded_domain
    monkeypatch.setattr(domains, "in_bounded_domain", counted)
    for alg in (eja.herm_complex(1), eja.sym_real(2), eja.spin_factor(4)):
        rng, before = _CountingRng(43), len(calls)
        for _ in range(3):
            domains.sample_bounded(alg, rng)
        assert len(calls) - before == rng.calls // 2
        assert set(calls[before:]) == {(alg.zdim,)}


# every family the weighted draws and the Cayley rows cover: the tube
# families, the ball and a rank-2 non-tube domain
WEIGHTED = ALGS + [eja.herm_complex(1), eja.herm_complex(3), eja.herm_quaternion(3),
                   eja.herm_complex(1, 3)]


def test_weighted_draws_are_interior_with_their_log_h():
    rng = np.random.default_rng(31)
    for alg in WEIGHTED:
        V, u = domains.sample_weighted_bounded(alg, alg.genus + 0.5, 6, rng)
        assert V.shape == (6, alg.zdim)
        assert u.shape == (6, alg.rank)
        # h(z, z) = prod_j (1 - u_j)
        for v, lh in zip(V, np.log1p(-u).sum(axis=1)):
            p = domains.bounded_from_vector(alg, v)
            assert domains.in_bounded_domain(p), alg
            h = domains.generic_norm(p, p)
            assert abs(h.imag) < 1e-12
            assert np.log(h.real) == pytest.approx(lh, abs=1e-10), alg


def test_cayley_rows_match_the_per_point_transform_and_its_jacobian():
    # rows against the closed-form transform point by point, log Delta of
    # the defect against cones.delta_j, and the closed-form |det c'(z)|^2
    # against the determinant of a central-difference complex Jacobian
    rng = np.random.default_rng(32)
    h = 1e-5
    for alg in WEIGHTED:
        V, _ = domains.sample_weighted_bounded(alg, alg.genus + 0.5, 3, rng)
        V = 0.8 * V
        W, logdet = domains.cayley_rows(alg, V)
        logjac = 2 * alg.dim_m * np.log(2.0) - 2 * alg.genus * logdet
        logdelta = domains.siegel_log_delta_rows(alg, W)
        c = functools.partial(cayley_closed_form.cayley, alg)
        for v, w, lj, ld, ldet in zip(V, W, logjac, logdelta, logdet):
            z = domains.bounded_from_vector(alg, v)
            q = domains.siegel_from_vector(alg, c(v))
            assert np.allclose(w, c(v), rtol=0, atol=1e-11), alg
            d = cones.delta_j(eja.identity(alg) - z.z1, alg.rank)
            assert np.exp(ldet) == pytest.approx(abs(d), rel=1e-12), alg
            want = cones.delta_j(domains.siegel_defect(q), alg.rank)
            assert np.exp(ld) == pytest.approx(want, rel=1e-10), alg
            eye = np.eye(alg.zdim)
            J = np.array([(c(v + h * eye[k]) - c(v - h * eye[k])) / (2 * h)
                          for k in range(alg.zdim)])
            fd = abs(np.linalg.det(J)) ** 2
            assert np.exp(lj) == pytest.approx(fd, rel=1e-6), alg


@pytest.mark.parametrize("alg", [eja.sym_real(2), eja.herm_complex(2, 2),
                                 eja.spin_factor(5), eja.herm_quaternion(2)], ids=str)
def test_rank2_radial_draws_follow_their_beta_laws(alg):
    # s = 1 - u at rank 2, Peirce a = 1, 2, 3, 4: the larger M ~ Beta(a + 2c, 1)
    # and the ratio x = s_2 / M ~ Beta(c, a + 1), c = lambda - g + 1; mean
    # and variance of each within 5 standard errors
    rng = np.random.default_rng(36)
    a, n = alg.peirce_a, 40000
    for lam in (alg.genus - 0.5, alg.genus + 2.0):
        c = lam - alg.genus + 1.0
        s = 1.0 - domains._jacobi_ensemble(alg, lam, n, rng)
        M = s.max(axis=1)
        for v, (p, q) in ((M, (a + 2.0 * c, 1.0)), (s.min(axis=1) / M, (c, a + 1.0))):
            mean = p / (p + q)
            var = p * q / ((p + q) ** 2 * (p + q + 1.0))
            assert abs(v.mean() - mean) <= 5 * v.std() / np.sqrt(n), (lam, p, q)
            dev = (v - v.mean()) ** 2
            assert abs(dev.mean() - var) <= 5 * dev.std() / np.sqrt(n), (lam, p, q)


def test_inverse_cayley_rows_undoes_cayley_rows():
    # on every family, the half-space block of herm_complex(1, 2), (1, 3)
    # and (2, 3) included, with (w + ie)/2i = (e - z)^(-1): the real part
    # of the log Delta it returns is -log |Delta(e - z)|
    rng = np.random.default_rng(34)
    for alg in WEIGHTED:
        V, _ = domains.sample_weighted_bounded(alg, alg.genus + 0.5, 50, rng)
        W, logdet = domains.cayley_rows(alg, V)
        Z, logdelta = domains.inverse_cayley_rows(alg, W)
        assert Z.shape == (50, alg.zdim), alg
        assert np.abs(Z - V).max() <= 1e-12, alg
        assert np.allclose(logdelta.real, -logdet, rtol=0, atol=1e-12), alg


class _CountingRng:
    """A generator that counts its uniform calls; sample_bounded makes two
    (real and imaginary parts) per box draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("alg,lam,n", [
    (eja.herm_complex(1), 3.0, 5000),
    (eja.herm_complex(1, 2), 4.5, 5000),
    (eja.sym_real(2), 4.0, 1000),
    (eja.herm_complex(2), 5.0, 1000),
], ids=["disc", "ball", "sym_real2", "herm_complex2"])
def test_bergman_constant_matches_box_rejection_mass(alg, lam, n):
    # c_lambda against box volume x acceptance x mean h^(lambda - g) over
    # the uniform points of the box sampler, within 5 standard errors
    rng = _CountingRng(33)
    pts = (domains.bounded_from_vector(alg, domains.sample_bounded(alg, rng))
           for _ in range(n))
    hs = np.array([domains.generic_norm(p, p).real for p in pts])
    vals = hs ** (lam - alg.genus)
    draws = rng.calls // 2
    acc = n / draws
    box = (2.0 * domains._BOX_SCALE[alg.family]) ** (2 * alg.zdim)
    mass = box * acc * vals.mean()
    rel_se = np.sqrt((1 - acc) / n + vals.var() / (n * vals.mean() ** 2))
    assert mass / domains.bergman_constant(alg, lam) == pytest.approx(
        1.0, abs=5 * rel_se)


def test_bergman_constant_closed_forms():
    # the disc and the ball: pi / (lambda - 1) and pi^2 / ((lambda - 1)(lambda - 2))
    assert domains.bergman_constant(eja.herm_complex(1), 3.0) == pytest.approx(
        np.pi / 2.0, rel=1e-14)
    assert domains.bergman_constant(eja.herm_complex(1, 2), 4.5) == pytest.approx(
        np.pi ** 2 / (3.5 * 2.5), rel=1e-14)
    with pytest.raises(ValueError):
        domains.bergman_constant(eja.sym_real(2), 2.0)


def test_sample_siegel_draw_order():
    # the Cayley images of the uniform draws of the same stream, every row
    # inside the Siegel domain
    for alg in WEIGHTED:
        W = domains.sample_siegel(alg, 20, np.random.default_rng(8))
        V, _ = domains.sample_weighted_bounded(alg, alg.genus, 20,
                                               np.random.default_rng(8))
        assert np.array_equal(W, domains.cayley_rows(alg, V)[0]), alg
        for w in W:
            assert domains.in_siegel_domain(domains.siegel_from_vector(alg, w),
                                            tol=0.0), alg
