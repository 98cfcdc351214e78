"""Pochhammer combinatorics on signatures and the positivity parameter set.

A signature is a non-increasing tuple of non-negative integers of length
rank. The generalized Pochhammer symbol attached to structure constants
(r, a) is

    (lam)_s = prod_{j=1}^{r} prod_{i=0}^{s_j - 1} (lam - a(j-1)/2 + i).

q_order counts the vanishing factors: the number of j for which
a(j-1)/2 - lam lands in {0, 1, ..., s_j - 1}. Offset 0 is included, so the
count is exactly the order of the zero of lam' -> (lam')_s at lam.
Lattice membership of a float is decided with a 1e-9 absolute tolerance.
signature_tables gives all three for a whole array of signatures at once;
the scalar functions are its reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isclose
from typing import List, Sequence, Tuple

import numpy as np

LATTICE_TOL = 1e-9

Signature = Tuple[int, ...]


def _check_signature(s: Sequence[int], rank: int) -> Signature:
    s = tuple(int(v) for v in s)
    if len(s) != rank:
        raise ValueError("signature length must equal the rank")
    if any(v < 0 for v in s):
        raise ValueError("signature entries must be non-negative")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise ValueError("signature must be non-increasing")
    return s


def _as_integer(x: float, tol: float = LATTICE_TOL):
    """Nearest integer if within tol, else None."""
    k = round(x)
    if abs(x - k) <= tol:
        return int(k)
    return None


def pochhammer(lam, s: Sequence[int], c):
    """(lam)_s for structure constants c (anything with .rank and .peirce_a)."""
    s = _check_signature(s, c.rank)
    a = c.peirce_a
    out = 1.0 + 0.0j if isinstance(lam, complex) else 1.0
    for j in range(1, c.rank + 1):
        base = lam - a * (j - 1) / 2.0
        for i in range(s[j - 1]):
            out = out * (base + i)
    return out


def q_order(s: Sequence[int], lam: float, c) -> int:
    """Order of vanishing of (.)_s at lam."""
    s = _check_signature(s, c.rank)
    a = c.peirce_a
    q = 0
    for j in range(1, c.rank + 1):
        k = _as_integer(a * (j - 1) / 2.0 - lam)
        if k is not None and 0 <= k < s[j - 1]:
            q += 1
    return q


def q_max(lam: float, c) -> int:
    """max over signatures of q_order(s, lam): unbounded-s_j count."""
    a = c.peirce_a
    q = 0
    for j in range(1, c.rank + 1):
        k = _as_integer(a * (j - 1) / 2.0 - lam)
        if k is not None and k >= 0:
            q += 1
    return q


def wallach_contains(lam, c) -> bool:
    """Membership in {j a/2 : j = 0..r-1} union (a(r-1)/2, infinity).

    Fractions (and ints) compare exactly; floats get 1e-12 slack.
    """
    a = c.peirce_a
    r = c.rank
    if isinstance(lam, (Fraction, int)):
        lam = Fraction(lam)
        edge = Fraction(a * (r - 1), 2)
        if lam > edge:
            return True
        return any(lam == Fraction(a * j, 2) for j in range(r))
    lam = float(lam)
    edge = a * (r - 1) / 2.0
    if lam > edge - 1e-12:
        # the endpoint is the j = r-1 lattice point
        return True
    return any(isclose(lam, a * j / 2.0, abs_tol=1e-12) for j in range(r))


def residue_pochhammer(lam: float, s: Sequence[int], c) -> float:
    """|product of the non-vanishing factors| of (lam)_s.

    This is lim |(lam')_s / (lam' - lam)^q| as lam' -> lam with
    q = q_max(lam); the signature must realize the full order,
    q_order(s, lam) = q_max(lam).
    """
    s = _check_signature(s, c.rank)
    if q_order(s, lam, c) != q_max(lam, c):
        raise ValueError("signature does not realize the maximal vanishing order")
    a = c.peirce_a
    out = 1.0
    for j in range(1, c.rank + 1):
        base = a * (j - 1) / 2.0 - lam
        k = _as_integer(base)
        for i in range(s[j - 1]):
            if k is not None and i == k:
                continue
            out *= abs(lam - a * (j - 1) / 2.0 + i)
    return out


def signature_tables(lam, sigs: np.ndarray, c) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam)_s, q_order(s, lam) and the residue product (as residue_pochhammer,
    for any s) of every row s of the (n, rank) integer array sigs.

    Row j of the table P of running products, P[j, k] = prod_(i<k)
    (lam - a j/2 + i), gives (lam)_s = prod_j P[j, s_j]; the residue table is
    the same over |factors| with the vanishing one, i = a j/2 - lam, set to 1.
    """
    sigs = np.asarray(sigs)
    top, a, rows = int(sigs.max(initial=0)), c.peirce_a, np.arange(c.rank)
    factors = np.array([lam - a * j / 2.0 for j in range(c.rank)])[:, None] + np.arange(top)
    # the index of each row's vanishing factor; top lies below no s_j
    k = np.array([top if v is None or v < 0 else v
                  for v in (_as_integer(a * j / 2.0 - lam) for j in range(c.rank))])
    nonzero = np.where(np.arange(top) == k[:, None], 1.0, np.abs(factors))
    poch, residue = (np.cumprod(np.hstack([np.ones((c.rank, 1)), f]), axis=1)[rows, sigs]
                     .prod(axis=1) for f in (factors, nonzero))
    return poch, (sigs > k).sum(axis=1), residue


@cache
def graded_signatures(rank: int, top: int) -> Tuple[np.ndarray, np.ndarray]:
    """The signatures of degree <= top as an (n, rank) array, degree by degree
    and lexicographic within a degree, and the row where each degree starts
    (top + 2 offsets, the last one n)."""
    sigs = np.array(sorted(enumerate_signatures(rank, top), key=sum), dtype=np.intp)
    offsets = np.searchsorted(sigs.sum(axis=1), np.arange(top + 2))
    sigs.flags.writeable = offsets.flags.writeable = False
    return sigs, offsets


def enumerate_signatures(r: int, max_total_degree: int) -> List[Signature]:
    """All non-increasing non-negative r-tuples with sum <= bound, lex order."""
    if r < 0 or max_total_degree < 0:
        raise ValueError("bounds must be non-negative")
    if r == 0:
        return [()]
    out: List[Signature] = []

    def rec(prefix, cap, budget):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(0, min(cap, budget) + 1):
            rec(prefix + [v], v, budget - v)

    rec([], max_total_degree, max_total_degree)
    out.sort()
    return out
