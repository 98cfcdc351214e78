import numpy as np
import pytest

from symcone import eja
from symcone.domains import BoundedPoint

RNG = np.random.default_rng(20240811)

ALL_ALGS = [make() for make in eja.ALL_FAMILY_EXAMPLES]


def rand_element(alg, rng, complex_coords=False, scale=1.0):
    c = rng.standard_normal(alg.dim_m) * scale
    if complex_coords:
        c = c + 1j * rng.standard_normal(alg.dim_m) * scale
    return eja.Element(alg, c)


# -- structure constants ------------------------------------------------------

def test_descriptor_tables():
    a = eja.sym_real(3)
    assert (a.rank, a.peirce_a, a.genus, a.dim_m) == (3, 1, 4, 6)
    b = eja.herm_complex(2, 3)
    assert (b.rank, b.peirce_a, b.genus, b.siegel_n) == (2, 2, 5, 2)
    assert not b.is_tube
    c = eja.herm_quaternion(2)
    assert (c.rank, c.peirce_a, c.genus) == (2, 4, 6)
    d = eja.spin_factor(7)
    assert (d.rank, d.peirce_a, d.genus) == (2, 5, 7)
    disc = eja.sym_real(1)
    assert (disc.rank, disc.genus, disc.dim_m) == (1, 2, 1)


def test_descriptor_identities():
    for alg in ALL_ALGS:
        assert 2 * (alg.dim_m - alg.rank) == alg.peirce_a * alg.rank * (alg.rank - 1)
        assert alg.genus * alg.rank == alg.siegel_n + 2 * alg.dim_m


def test_make_algebra_rejects():
    with pytest.raises(ValueError):
        eja.make_algebra("sym_real", 0)
    with pytest.raises(ValueError):
        eja.make_algebra("herm_complex", 3, q=2)
    with pytest.raises(ValueError):
        eja.make_algebra("spin", 2)
    with pytest.raises(ValueError):
        eja.make_algebra("clifford", 3)
    with pytest.raises(ValueError):
        eja.make_algebra("spin", 4, q=5)


# -- product axioms -----------------------------------------------------------

def test_jordan_axioms():
    for alg in ALL_ALGS:
        for _ in range(5):
            x = rand_element(alg, RNG)
            y = rand_element(alg, RNG)
            xy = eja.jordan_product(x, y)
            yx = eja.jordan_product(y, x)
            assert (xy - yx).norm() < 1e-12 * max(1.0, xy.norm())
            # Jordan identity: x o (x^2 o y) = x^2 o (x o y)
            x2 = eja.jordan_product(x, x)
            lhs = eja.jordan_product(x, eja.jordan_product(x2, y))
            rhs = eja.jordan_product(x2, eja.jordan_product(x, y))
            assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())
            e = eja.identity(alg)
            assert (eja.jordan_product(e, x) - x).norm() < 1e-12 * max(1.0, x.norm())


def test_trace_form_associative_and_positive():
    for alg in ALL_ALGS:
        for _ in range(5):
            x = rand_element(alg, RNG)
            y = rand_element(alg, RNG)
            z = rand_element(alg, RNG)
            lhs = eja.trace_inner(eja.jordan_product(x, y), z)
            rhs = eja.trace_inner(x, eja.jordan_product(y, z))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            assert eja.trace_inner(x, x) > 0 or x.norm() == 0


def test_trace_matches_eigenvalue_sum():
    for alg in ALL_ALGS:
        x = rand_element(alg, RNG)
        lam, _ = eja.spectral_decomposition(x)
        assert abs(eja.jordan_trace(x) - lam.sum()) < 1e-10
        assert abs(eja.determinant(x) - np.prod(lam)) < 1e-9 * max(1.0, np.prod(np.abs(lam)))


def test_spin_product_matches_sym_real_2():
    # SpinFactor(3) is S_2(R) in disguise: (x, y, z) <-> [[x, z], [z, y]]
    spin = eja.spin_factor(3)
    sym = eja.sym_real(2)

    def to_sym(el):
        x, y, z = el.coords
        return eja.Element(sym, np.array([x, np.sqrt(2.0) * z, y]))

    for _ in range(10):
        u = rand_element(spin, RNG)
        v = rand_element(spin, RNG)
        lhs = to_sym(eja.jordan_product(u, v))
        rhs = eja.jordan_product(to_sym(u), to_sym(v))
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())
        assert abs(eja.determinant(u) - eja.determinant(to_sym(u))) < 1e-12


# -- spectral decomposition ---------------------------------------------------

def test_spin_spectral_example():
    alg = eja.spin_factor(4)
    x = eja.Element(alg, np.array([3.0, 2.0, 1.0, 1.0]))
    lam, frame = eja.spectral_decomposition(x)
    # roots of t^2 - 5 t + 4
    assert np.allclose(lam, [4.0, 1.0])
    recon = lam[0] * frame[0].coords + lam[1] * frame[1].coords
    assert np.allclose(recon, x.coords)


def test_spectral_reconstruction_and_frame():
    for alg in ALL_ALGS:
        for _ in range(4):
            x = rand_element(alg, RNG)
            lam, frame = eja.spectral_decomposition(x)
            assert len(frame) == alg.rank
            assert np.all(np.diff(lam) <= 1e-12)
            recon = sum(float(l) * c.coords for l, c in zip(lam, frame))
            assert np.allclose(recon, x.coords, atol=1e-9)
            e_sum = sum(c.coords for c in frame)
            assert np.allclose(e_sum, eja.identity(alg).coords, atol=1e-9)
            for i, ci in enumerate(frame):
                for j, cj in enumerate(frame):
                    prod = eja.jordan_product(ci, cj)
                    target = ci.coords if i == j else 0.0 * ci.coords
                    assert np.allclose(prod.coords, target, atol=1e-8)
                assert abs(ci.norm() - 1.0) < 1e-8  # primitive, norm 1


def test_spectral_degenerate_spin():
    alg = eja.spin_factor(5)
    x = eja.Element(alg, np.array([2.0, 2.0, 0.0, 0.0, 0.0]))
    lam, frame = eja.spectral_decomposition(x)
    assert np.allclose(lam, [2.0, 2.0])
    assert np.allclose((frame[0] + frame[1]).coords, eja.identity(alg).coords)


def test_inverse():
    for alg in ALL_ALGS:
        x = rand_element(alg, RNG) + 4.0 * eja.identity(alg)  # keep it invertible
        xi = eja.inverse(x)
        assert (eja.jordan_product(x, xi) - eja.identity(alg)).norm() < 1e-9
        # full inverse axiom: x^2 o x^{-1} = x
        x2 = eja.jordan_product(x, x)
        assert (eja.jordan_product(x2, xi) - x).norm() < 1e-8
        y = x.as_complex() * (0.3 + 1.1j)
        yi = eja.inverse(y)
        assert (eja.jordan_product(y, yi) - eja.identity(alg).as_complex()).norm() < 1e-9


def test_inverse_singular_rejected():
    alg = eja.sym_real(2)
    x = eja.Element(alg, np.array([1.0, 0.0, 0.0]))  # det 0
    with pytest.raises(np.linalg.LinAlgError):
        eja.inverse(x)


# -- triple product -----------------------------------------------------------

def jordan_route_triple(x, y, z):
    yb = y.conj()
    return (
        eja.jordan_product(x, eja.jordan_product(yb, z))
        - eja.jordan_product(eja.jordan_product(x, z), yb)
        + eja.jordan_product(z, eja.jordan_product(yb, x))
    )


def test_triple_product_oracle():
    # matrix formula (x y* z + z y* x)/2 against the Jordan-algebra route
    for alg in ALL_ALGS:
        for _ in range(4):
            x = rand_element(alg, RNG, complex_coords=True)
            y = rand_element(alg, RNG, complex_coords=True)
            z = rand_element(alg, RNG, complex_coords=True)
            got = eja.triple_product(x, y, z)
            want = jordan_route_triple(x, y, z)
            assert (got - want).norm() < 1e-10 * max(1.0, want.norm())


def test_tripotent_identity():
    for alg in ALL_ALGS:
        e = eja.identity(alg)
        t = eja.triple_product(e, e, e)
        assert (t - e).norm() < 1e-12


def test_trace_ratio_of_d_operator():
    # tr D(x, y) over the full Z equals (genus/2) tau(x y)
    for alg in ALL_ALGS:
        x = rand_element(alg, RNG)
        y = rand_element(alg, RNG)
        if alg.siegel_n == 0:
            # the z-chart basis spans the whole of Z for tube families
            tr = 0.0
            for k in range(alg.dim_m):
                v = np.zeros(alg.dim_m, dtype=complex)
                v[k] = 1.0
                b = eja.from_zchart(alg, v)
                w = eja.triple_product(x.as_complex(), y.as_complex(), b.as_complex())
                tr += np.vdot(v, eja.to_zchart(w))
        else:
            X = BoundedPoint(alg, x).full_matrix()
            Y = BoundedPoint(alg, y).full_matrix()
            p, q = X.shape
            tr = 0.0
            for i in range(p):
                for j in range(q):
                    B = np.zeros((p, q), dtype=complex)
                    B[i, j] = 1.0
                    W = eja.triple_product_full(alg, X, Y, B)
                    tr += W[i, j]
        want = alg.trace_ratio * eja.trace_inner(x, y)
        assert abs(tr - want) < 1e-9 * max(1.0, abs(want)), alg


# -- charts -------------------------------------------------------------------

def with_wide_blocks(seed):
    """ALL_ALGS with the module RNG, then two layouts with several blocks
    above the diagonal per row with a local generator, so other tests draw
    as before."""
    yield from ((alg, RNG) for alg in ALL_ALGS)
    rng = np.random.default_rng(seed)
    for alg in (eja.herm_complex(3), eja.herm_quaternion(3)):
        yield alg, rng


def test_zchart_roundtrip_and_isometry():
    for alg, rng in with_wide_blocks(21):
        for _ in range(4):
            x = rand_element(alg, rng, complex_coords=True)
            v = eja.to_zchart(x)
            assert v.shape == (alg.dim_m,)
            back = eja.from_zchart(alg, v)
            assert (back - x).norm() < 1e-12 * max(1.0, x.norm())
            # hermitian trace pairing is the chart dot product
            w = eja._trace_weights(alg)
            herm = np.sum(w * x.coords * np.conj(x.coords)).real
            assert abs(np.vdot(v, v).real - herm) < 1e-12 * max(1.0, herm)


def test_embed_roundtrip():
    for alg, rng in with_wide_blocks(22):
        if alg.family == "spin":
            continue
        x = rand_element(alg, rng, complex_coords=True)
        M = eja.embed_matrix(x)
        back = eja.unembed_matrix(alg, M)
        assert (back - x).norm() < 1e-12 * max(1.0, x.norm())
        if alg.family == "herm_quaternion":
            S = eja.skew_embed(x)
            assert np.allclose(S, -S.T, atol=1e-12)


def test_spin_has_no_matrix_picture():
    alg = eja.spin_factor(4)
    x = rand_element(alg, np.random.default_rng(23))
    with pytest.raises(ValueError):
        eja.embed_matrix(x)
    with pytest.raises(ValueError):
        eja.unembed_matrix(alg, np.eye(2))


def test_real_elements_embed_hermitian():
    for alg in ALL_ALGS:
        if alg.family == "spin":
            continue
        x = rand_element(alg, RNG)
        M = eja.embed_matrix(x)
        assert np.allclose(M, M.conj().T, atol=1e-12)


# -- Peirce decomposition -----------------------------------------------------

def test_peirce_sym_real_2_example():
    alg = eja.sym_real(2)
    c = eja.standard_frame(alg)[0]
    pr = eja.peirce_projectors(c)
    assert pr["dims"] == {"0": 1, "half": 1, "1": 1}


def test_peirce_projector_algebra():
    for alg in ALL_ALGS:
        c = eja.standard_frame(alg)[0]
        pr = eja.peirce_projectors(c)
        total = pr["0"] + pr["half"] + pr["1"]
        assert np.allclose(total, np.eye(alg.dim_m), atol=1e-9)
        for key in ("0", "half", "1"):
            P = pr[key]
            assert np.allclose(P @ P, P, atol=1e-9)
            assert np.allclose(P, P.conj().T, atol=1e-10)
        # Z_1(c) eigenspace contains c itself
        v = eja.to_zchart(c.as_complex())
        assert np.allclose(pr["1"] @ v, v, atol=1e-9)


def test_peirce_dims_follow_structure_constants():
    # dim Z_1(e_1) = 1, dim Z_{1/2}(e_1) = a (rank - 1) + spin-type extras
    for alg in ALL_ALGS:
        if alg.rank == 1:
            continue
        c = eja.standard_frame(alg)[0]
        dims = eja.peirce_projectors(c)["dims"]
        if alg.family == "spin":
            assert dims == {"0": 1, "half": alg.dim_m - 2, "1": 1}
        else:
            assert dims["1"] == 1
            assert dims["half"] == alg.peirce_a * (alg.rank - 1)


def test_peirce_rejects_non_idempotent():
    alg = eja.sym_real(2)
    x = eja.Element(alg, np.array([0.3, 0.4, 0.5]))
    with pytest.raises(ValueError):
        eja.peirce_projectors(x)
