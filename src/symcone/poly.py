"""Sparse polynomials in several complex variables, and dense coefficient
stacks over the monomials of one degree.

Monomials are keyed by exponent tuples; coefficients are complex scalars.
This representation is aimed at the moderate degrees (<= 60 in one variable,
<= 12 in up to ~8 variables) used throughout the package. Arithmetic keeps
every nonzero coefficient.

Bulk work goes through arrays instead: monomial_table(nvars, degree) fixes
the order of the monomials of one degree (homogeneous_monomials order) and
their Fischer weights sqrt(alpha!), so a homogeneous polynomial is a vector
and a batch of them a stack of rows. mul_stacks multiplies two stacks row by
row. graded_table(nvars, top) lays the tables of degrees 0..top end to end,
and graded_vector turns a SparsePolynomial into one Fischer-weighted vector
over it, whose slice for degree d is the weighted vector of the degree-d
part; plain dot products of these vectors are Fischer pairings.
"""

from __future__ import annotations

import math
from functools import cache
from operator import add
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

Exponent = Tuple[int, ...]


class SparsePolynomial:
    """Polynomial sum_alpha c_alpha z^alpha on C^nvars."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[Exponent, complex] | None = None):
        self.nvars = int(nvars)
        self.coeffs: Dict[Exponent, complex] = {}
        if coeffs:
            for a, c in coeffs.items():
                if c != 0:
                    key = tuple(int(k) for k in a)
                    if len(key) != self.nvars:
                        raise ValueError("exponent arity mismatch")
                    self.coeffs[key] = self.coeffs.get(key, 0.0) + complex(c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: complex) -> "SparsePolynomial":
        p = cls(nvars)
        if c != 0:
            p.coeffs[(0,) * nvars] = complex(c)
        return p

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePolynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1.0})

    @classmethod
    def linear_form(cls, vec: Iterable[complex]) -> "SparsePolynomial":
        vec = list(vec)
        p = cls(len(vec))
        for i, c in enumerate(vec):
            if c != 0:
                e = [0] * len(vec)
                e[i] = 1
                p.coeffs[tuple(e)] = complex(c)
        return p

    # -- basic queries ---------------------------------------------------

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.coeffs:
            return -1
        return max(sum(a) for a in self.coeffs)

    def copy(self) -> "SparsePolynomial":
        p = SparsePolynomial(self.nvars)
        p.coeffs = dict(self.coeffs)
        return p

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SparsePolynomial.constant(self.nvars, other)
        out = self.copy()
        for a, c in other.coeffs.items():
            s = out.coeffs.get(a, 0.0) + c
            if s == 0:
                out.coeffs.pop(a, None)
            else:
                out.coeffs[a] = s
        return out

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial(self.nvars, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SparsePolynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return SparsePolynomial(self.nvars)
            return SparsePolynomial(self.nvars, {a: c * other for a, c in self.coeffs.items()})
        out = SparsePolynomial(self.nvars)
        oc = out.coeffs
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(map(add, a, b))
                oc[key] = oc.get(key, 0.0) + ca * cb
        out.coeffs = {a: c for a, c in oc.items() if c != 0}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SparsePolynomial.constant(self.nvars, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, max_degree: int) -> "SparsePolynomial":
        return SparsePolynomial(
            self.nvars, {a: c for a, c in self.coeffs.items() if sum(a) <= max_degree}
        )

    def homogeneous_part(self, degree: int) -> "SparsePolynomial":
        return SparsePolynomial(
            self.nvars, {a: c for a, c in self.coeffs.items() if sum(a) == degree}
        )

    # -- calculus ----------------------------------------------------------

    def derivative(self, i: int, order: int = 1) -> "SparsePolynomial":
        out = SparsePolynomial(self.nvars)
        for a, c in self.coeffs.items():
            k = a[i]
            if k < order:
                continue
            fac = 1.0
            for j in range(order):
                fac *= k - j
            e = list(a)
            e[i] = k - order
            out.coeffs[tuple(e)] = out.coeffs.get(tuple(e), 0.0) + c * fac
        return out

    def derivative_multi(self, beta: Exponent) -> "SparsePolynomial":
        p = self
        for i, b in enumerate(beta):
            if b:
                p = p.derivative(i, b)
        return p

    # -- substitution -------------------------------------------------------

    def compose_linear(self, mat: np.ndarray) -> "SparsePolynomial":
        """p(M z): substitute z_i -> sum_j M[i, j] z_j.

        M is nvars x nvars_new; result lives on nvars_new variables.
        """
        mat = np.asarray(mat)
        nnew = mat.shape[1]
        lin = [SparsePolynomial.linear_form(mat[i, :]) for i in range(self.nvars)]
        return self._substitute(lin, nnew)

    def compose_affine(self, mat: np.ndarray, shift: np.ndarray) -> "SparsePolynomial":
        """p(M z + b)."""
        mat = np.asarray(mat)
        shift = np.asarray(shift)
        nnew = mat.shape[1]
        subs = []
        for i in range(self.nvars):
            li = SparsePolynomial.linear_form(mat[i, :])
            if shift[i] != 0:
                li = li + complex(shift[i])
            subs.append(li)
        return self._substitute(subs, nnew)

    def _substitute(self, subs, nnew: int) -> "SparsePolynomial":
        # Horner over the variable of highest total use would be cleaner; for
        # our sizes a direct power-product cache is fast enough.
        powers: Dict[Tuple[int, int], SparsePolynomial] = {}

        def var_pow(i: int, k: int) -> SparsePolynomial:
            if k == 0:
                return SparsePolynomial.constant(nnew, 1.0)
            key = (i, k)
            if key not in powers:
                powers[key] = subs[i] ** k
            return powers[key]

        out = SparsePolynomial(nnew)
        for a, c in self.coeffs.items():
            term = SparsePolynomial.constant(nnew, c)
            for i, k in enumerate(a):
                if k:
                    term = term * var_pow(i, k)
            out = out + term
        return out

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z) -> complex | np.ndarray:
        return self.eval(z)

    def eval(self, z) -> complex | np.ndarray:
        """Evaluate at a point (shape (nvars,)) or a batch (shape (N, nvars)).

        Each term starts from c times its first power; powers of a column
        come by repeated squaring. A single point is evaluated in Python
        complex arithmetic, which is cheaper than numpy on one element.
        """
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        if z.shape[-1] != self.nvars:
            raise ValueError("point dimension mismatch")
        if single:
            zs = z.tolist()
            total = 0j
            for a, c in self.coeffs.items():
                for x, k in zip(zs, a):
                    if k:
                        c = c * x ** k
                total += c
            return np.complex128(total)
        vals = None
        for a, c in self.coeffs.items():
            term = None
            for i, k in enumerate(a):
                if k:
                    p = _int_power(z[:, i], k)
                    if term is None:
                        term = c * p
                    else:
                        term *= p
            if vals is None:
                vals = np.full(z.shape[0], c, dtype=complex) if term is None else term
            else:
                vals += c if term is None else term
        return np.zeros(z.shape[0], dtype=complex) if vals is None else vals

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return "SparsePolynomial(0)"
        parts = []
        for a in sorted(self.coeffs, key=lambda t: (sum(t), t))[:6]:
            parts.append(f"{self.coeffs[a]:.3g}*z^{a}")
        more = "..." if len(self.coeffs) > 6 else ""
        return "SparsePolynomial(" + " + ".join(parts) + more + ")"


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k for an integer k >= 1 by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


@cache
def monomial_factorial(alpha: Exponent) -> float:
    out = 1.0
    for k in alpha:
        out *= math.factorial(k)
    return out


def homogeneous_monomials(nvars: int, degree: int) -> List[Exponent]:
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


class MonomialTable:
    """The monomials of one degree: their order, positions and Fischer weights.

    A homogeneous polynomial of this degree is the vector of its coefficients
    in `monos` order; its Fischer-weighted vector carries sqrt(alpha!) p_alpha,
    so the Fischer pairing of two polynomials is the plain dot product of
    their weighted vectors (one conjugated).
    """

    __slots__ = ("nvars", "monos", "index", "weights")

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.monos = tuple(homogeneous_monomials(nvars, degree))
        self.index = {a: i for i, a in enumerate(self.monos)}
        self.weights = np.sqrt([monomial_factorial(a) for a in self.monos])
        self.weights.flags.writeable = False

    def polynomial(self, v: np.ndarray) -> SparsePolynomial:
        """The polynomial whose Fischer-weighted vector is v; exact zeros of v
        are left out."""
        c = v / self.weights
        return SparsePolynomial(self.nvars, {self.monos[i]: c[i] for i in np.flatnonzero(c)})


@cache
def monomial_table(nvars: int, degree: int) -> MonomialTable:
    return MonomialTable(nvars, degree)


@cache
def graded_table(nvars: int, top: int) -> Tuple[np.ndarray, Dict[Exponent, int], np.ndarray]:
    """The monomials of degrees 0..top end to end, each degree in
    monomial_table order: (offsets, index, weights), where degree d fills
    [offsets[d], offsets[d + 1]), index maps an exponent to its position and
    weights are the Fischer weights sqrt(alpha!)."""
    tables = [monomial_table(nvars, d) for d in range(top + 1)]
    offsets = np.cumsum([0] + [len(t.monos) for t in tables])
    weights = np.concatenate([t.weights for t in tables])
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, {a: i for i, a in enumerate(a for t in tables for a in t.monos)}, weights


def graded_vector(p: SparsePolynomial, top: int) -> np.ndarray:
    """Fischer-weighted coefficients of p over graded_table(p.nvars, top), in
    one pass over the coefficients; terms of degree above top are dropped."""
    _, index, weights = graded_table(p.nvars, top)
    n = len(weights)
    v = np.zeros(n + 1, dtype=complex)  # slot n collects the dropped terms
    pos = np.fromiter((index.get(a, n) for a in p.coeffs), np.intp, len(p.coeffs))
    v[pos] = np.fromiter(p.coeffs.values(), complex, len(p.coeffs))
    return v[:n] * weights


@cache
def _product_targets(nvars: int, da: int, db: int) -> np.ndarray:
    """Position in the degree-(da + db) table of every product of a degree-da
    and a degree-db monomial, row-major over the two tables."""
    ma = monomial_table(nvars, da).monos
    mb = monomial_table(nvars, db).monos
    index = monomial_table(nvars, da + db).index
    out = np.array([index[tuple(map(add, a, b))] for a in ma for b in mb], dtype=np.intp)
    out.flags.writeable = False
    return out


def mul_stacks(a: np.ndarray, b: np.ndarray, nvars: int, da: int, db: int) -> np.ndarray:
    """Row-by-row products of two coefficient stacks.

    a is (B, N_da) and b is (B, N_db), plain (unweighted) coefficients of
    homogeneous polynomials over the tables of degrees da and db; the result
    is the (B, N_(da+db)) stack of the products. Every pairwise term is summed
    into its target monomial with one bincount per real and imaginary part.
    """
    n_out = len(monomial_table(nvars, da + db).monos)
    rows = a.shape[0]
    terms = (a[:, :, None] * b[:, None, :]).reshape(rows, -1)
    flat = (np.arange(rows)[:, None] * n_out + _product_targets(nvars, da, db)).ravel()
    re = np.bincount(flat, terms.real.ravel(), rows * n_out)
    im = np.bincount(flat, terms.imag.ravel(), rows * n_out)
    return (re + 1j * im).reshape(rows, n_out)


def det_poly(entries) -> SparsePolynomial:
    """Determinant of a square array of SparsePolynomial entries.

    Cofactor expansion along the first row; sizes here never exceed ~8.
    """
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    out = None
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = entries[0][j] * det_poly(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return out


def pfaffian_poly(entries) -> SparsePolynomial:
    """Pfaffian of an even-size skew-symmetric array of polynomials.

    Expansion along the first row: Pf(A) = sum_j (-1)^j A[0][j] Pf(A with rows
    and columns 0, j removed). Normalized so Pf([[0, a], [-a, 0]]) = a.
    """
    n = len(entries)
    if n % 2:
        raise ValueError("pfaffian needs even size")
    if n == 0:
        raise ValueError("empty pfaffian")
    if n == 2:
        return entries[0][1]
    out = None
    for j in range(1, n):
        keep = [k for k in range(1, n) if k != j]
        minor = [[entries[r][c] for c in keep] for r in keep]
        term = entries[0][j] * pfaffian_poly(minor)
        if j % 2 == 0:
            term = -term
        out = term if out is None else out + term
    return out
