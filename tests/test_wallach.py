"""Pochhammer symbols, vanishing orders, positivity set, residues."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from symcone import eja, wallach

RNG = np.random.default_rng(20240813)

DISC = eja.sym_real(1)
SR2 = eja.sym_real(2)  # r=2, a=1
HC3 = eja.herm_complex(3)  # r=3, a=2
HQ2 = eja.herm_quaternion(2)  # r=2, a=4


def numeric_vanishing_order(lam, s, c):
    """Fit the power of (lam + eps)_s in eps at 1e-3 and 1e-4."""
    p3 = abs(wallach.pochhammer(lam + 1e-3, s, c))
    p4 = abs(wallach.pochhammer(lam + 1e-4, s, c))
    if p3 < 1e-30:
        return None
    return int(round(np.log10(p3 / p4)))


def test_pochhammer_empty_and_classical():
    assert wallach.pochhammer(1.7, (0,), DISC) == 1.0
    assert wallach.pochhammer(0.4, (0, 0), SR2) == 1.0
    for k in range(6):
        lam = 0.9
        want = np.prod([lam + i for i in range(k)]) if k else 1.0
        assert wallach.pochhammer(lam, (k,), DISC) == pytest.approx(float(want))


def test_pochhammer_rank2_example():
    # r=2, a=1, s=(1,1): lam (lam - 1/2)
    for lam in (0.3, 2.0, -1.2):
        assert wallach.pochhammer(lam, (1, 1), SR2) == pytest.approx(lam * (lam - 0.5))
    assert wallach.pochhammer(0.5, (1, 1), SR2) == pytest.approx(0.0, abs=1e-15)


def test_pochhammer_complex_argument():
    lam = 0.7 + 0.2j
    got = wallach.pochhammer(lam, (2, 1), SR2)
    want = lam * (lam + 1) * (lam - 0.5)
    assert got == pytest.approx(want)


def test_pochhammer_rejects_bad_signatures():
    with pytest.raises(ValueError):
        wallach.pochhammer(1.0, (1, 2), SR2)
    with pytest.raises(ValueError):
        wallach.pochhammer(1.0, (-1,), DISC)
    with pytest.raises(ValueError):
        wallach.pochhammer(1.0, (1,), SR2)


def test_q_order_examples():
    for k in range(1, 5):
        assert wallach.q_order((k,), 0.0, DISC) == 1
    # above the lattice nothing vanishes
    for alg in (DISC, SR2, HQ2):
        for s in wallach.enumerate_signatures(alg.rank, 4):
            assert wallach.q_order(s, 3.0 + 1e-3, alg) == 0
    # offset-0 hit counts: it is the order of the zero
    assert wallach.q_order((1, 1), 0.5, SR2) == 1
    assert wallach.pochhammer(0.5, (1, 1), SR2) == pytest.approx(0.0, abs=1e-15)


def test_q_order_matches_numeric_vanishing_order():
    for alg in (DISC, SR2, HC3, HQ2):
        lattice = [alg.peirce_a * j / 2.0 - k for j in range(alg.rank) for k in range(4)]
        for s in wallach.enumerate_signatures(alg.rank, 5):
            for lam in lattice:
                got = wallach.q_order(s, lam, alg)
                fit = numeric_vanishing_order(lam, s, alg)
                if fit is not None:
                    assert got == fit, (alg.family, s, lam)


def test_q_order_zero_iff_nonvanishing():
    # lattice values a j/2 - k are dyadic, so vanishing factors are exact 0.0
    for alg in (DISC, SR2, HC3):
        lams = [alg.peirce_a * j / 2.0 - k for j in range(alg.rank) for k in range(6)]
        lams += list(RNG.normal(scale=2.0, size=20))
        for s in wallach.enumerate_signatures(alg.rank, 8):
            for lam in lams:
                val = wallach.pochhammer(lam, s, alg)
                assert (wallach.q_order(s, lam, alg) == 0) == (val != 0.0)


def test_q_max_examples_and_cross_check():
    assert wallach.q_max(0.0, DISC) == 1
    assert wallach.q_max(0.3, DISC) == 0
    # a=1: the j=2 row vanishes on 1/2 - N only, so -1 hits just the j=1 row
    assert wallach.q_max(-1.0, SR2) == 1
    assert wallach.q_max(-1.5, SR2) == 1  # j=2 row only
    assert wallach.q_max(0.5, SR2) == 1
    assert wallach.q_max(2.0, HQ2) == 1  # only j=2 hits: 4/2 - 2 = 0
    assert wallach.q_max(-1.0, HQ2) == 2
    for alg in (DISC, SR2, HQ2):
        for lam in (-1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 3.0):
            bound = int(4 * (alg.peirce_a * alg.rank + abs(lam))) + alg.rank
            best = max(
                wallach.q_order(s, lam, alg)
                for s in wallach.enumerate_signatures(alg.rank, bound)
            )
            assert wallach.q_max(lam, alg) == best


def test_wallach_membership():
    for lam in (0.0, 0.5, 1.0, 2.0, 3.0, 1e-13):
        assert wallach.wallach_contains(lam, DISC)
    for lam in (-0.5, -1.0, -1e-6):
        assert not wallach.wallach_contains(lam, DISC)
    assert wallach.wallach_contains(0.0, SR2)
    assert wallach.wallach_contains(0.5, SR2)
    assert wallach.wallach_contains(0.6, SR2)
    assert not wallach.wallach_contains(0.25, SR2)
    assert not wallach.wallach_contains(0.4999999, SR2)
    # endpoint a(r-1)/2 is itself a lattice point
    assert wallach.wallach_contains(2.0, HQ2)
    assert not wallach.wallach_contains(1.0, HQ2)
    assert wallach.wallach_contains(Fraction(1, 2), SR2)
    assert not wallach.wallach_contains(Fraction(1, 4), SR2)
    assert wallach.wallach_contains(7, SR2)


def test_wallach_points_have_nonnegative_pochhammer():
    cases = {
        DISC: [0.0, 0.5, 2.0],
        SR2: [0.0, 0.5, 0.75, 3.0],
        HC3: [0.0, 1.0, 2.0, 2.5],
        HQ2: [0.0, 2.0, 2.3],
    }
    for alg, lams in cases.items():
        for lam in lams:
            assert wallach.wallach_contains(lam, alg)
            for s in wallach.enumerate_signatures(alg.rank, 12):
                assert wallach.pochhammer(lam, s, alg) >= -1e-12


def test_ray_pochhammer_strictly_positive():
    for alg in (SR2, HC3, HQ2):
        lam = alg.peirce_a * (alg.rank - 1) / 2.0 + 0.35
        for s in wallach.enumerate_signatures(alg.rank, 12):
            assert wallach.pochhammer(lam, s, alg) > 0


def test_residue_disc_formulas():
    for k in range(1, 8):
        assert wallach.residue_pochhammer(0.0, (k,), DISC) == pytest.approx(
            float(factorial(k - 1))
        )
    for k in range(2, 8):
        assert wallach.residue_pochhammer(-1.0, (k,), DISC) == pytest.approx(
            float(factorial(k - 2))
        )


def test_residue_requires_maximal_order():
    with pytest.raises(ValueError):
        wallach.residue_pochhammer(0.0, (0,), DISC)
    # SR2 at lam=-1 has q_max=2 but s=(1,0) only realizes order 1
    with pytest.raises(ValueError):
        wallach.residue_pochhammer(-1.0, (1, 0), SR2)


def test_residue_matches_two_sided_limit():
    checked = 0
    for alg in (DISC, SR2, HC3, HQ2):
        lattice = sorted({alg.peirce_a * j / 2.0 - k
                          for j in range(alg.rank) for k in range(4)})
        sigs = wallach.enumerate_signatures(alg.rank, 9)
        for lam in lattice:
            q = wallach.q_max(lam, alg)
            good = [s for s in sigs if wallach.q_order(s, lam, alg) == q]
            for s in good[:: max(1, len(good) // 4)]:
                want = wallach.residue_pochhammer(lam, s, alg)
                h = 1e-5
                plus = abs(wallach.pochhammer(lam + h, s, alg)) / h ** q
                minus = abs(wallach.pochhammer(lam - h, s, alg)) / h ** q
                got = (plus + minus) / 2.0
                assert got == pytest.approx(want, rel=1e-6)
                checked += 1
    assert checked >= 50


def test_enumerate_signatures_small_cases():
    assert wallach.enumerate_signatures(1, 3) == [(0,), (1,), (2,), (3,)]
    assert wallach.enumerate_signatures(2, 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert wallach.enumerate_signatures(0, 5) == [()]


def test_enumerate_signatures_counts_and_order():
    for n in range(1, 12):
        got = wallach.enumerate_signatures(2, n)
        assert len(got) == (n + 2) ** 2 // 4
        assert got == sorted(got)
        assert len(set(got)) == len(got)
        for s in got:
            assert s[0] >= s[1] >= 0 and s[0] + s[1] <= n
    for r in (3, 4):
        for s in wallach.enumerate_signatures(r, 6):
            assert all(s[i] >= s[i + 1] for i in range(r - 1))
            assert sum(s) <= 6


@pytest.mark.parametrize("alg", [DISC, SR2, HC3, HQ2, eja.sym_real(3)], ids=str)
def test_signature_tables_match_scalar_functions(alg):
    # every signature with |s| <= 12, at lattice points with zero factors,
    # on the ray, between lattice points, and for an exact Fraction
    sigs, offsets = wallach.graded_signatures(alg.rank, 12)
    assert sorted(map(tuple, sigs.tolist())) == wallach.enumerate_signatures(alg.rank, 12)
    assert np.array_equal(offsets, np.searchsorted(sigs.sum(axis=1), np.arange(14)))
    a = alg.peirce_a
    for lam in (0, 0.0, a / 2, 1, 1.0, -1.0, 0.3, 2.7, a * (alg.rank - 1) / 2 + 0.5,
                Fraction(3, 2), Fraction(a, 2)):
        poch, q, residue = wallach.signature_tables(lam, sigs, alg)
        qm = wallach.q_max(lam, alg)
        for s, p, k, res in zip(map(tuple, sigs.tolist()), poch, q, residue):
            want = wallach.pochhammer(lam, s, alg)
            assert abs(p - want) <= 1e-14 * abs(want), (lam, s)
            assert k == wallach.q_order(s, lam, alg), (lam, s)
            if k == qm:
                want = wallach.residue_pochhammer(lam, s, alg)
                assert abs(res - want) <= 1e-14 * want, (lam, s)
