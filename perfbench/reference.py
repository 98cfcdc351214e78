"""Reference values the benchmark computes without the package.

Everything here works on plain chart vectors (the coordinates a caller
hands to `domains.bounded_from_vector`) and closed forms, so a check
against these values does not go through the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = math.sqrt(2.0)


def wallach_member(lam: float, r: int, a: float, tol: float = 1e-12) -> bool:
    """lam in {j a/2 : j = 0..r-1} or lam > (r-1) a/2."""
    if lam > a * (r - 1) / 2.0 + tol:
        return True
    return any(abs(lam - a * j / 2.0) <= tol for j in range(r))


def chart_matrix(family: str, size: int, v: np.ndarray) -> np.ndarray:
    """Matrix picture of a chart vector.

    herm_complex(p, p): row-major entries.  sym_real(r): upper-triangle
    coordinates in row-major order, off-diagonal ones scaled by 1/sqrt 2.
    """
    v = np.asarray(v, dtype=complex)
    if family == "herm_complex":
        return v[: size * size].reshape(size, size)
    if family == "sym_real":
        M = np.empty((size, size), dtype=complex)
        k = 0
        for i in range(size):
            for j in range(i, size):
                M[i, j] = M[j, i] = v[k] if i == j else v[k] / SQ2
                k += 1
        return M
    raise ValueError(family)


def _spin_delta2(u: np.ndarray) -> complex:
    return u[0] * u[1] - 0.5 * np.sum(u[2:] ** 2)


def kernel(family: str, size: int, lam: float, z: np.ndarray, w: np.ndarray) -> complex:
    """Closed-form bounded kernel K_lam(z, w), K(z, 0) = 1.

    herm_complex: det(I - Z W*)^(-lam); sym_real: det(I - Z conj W)^(-lam),
    both with the logarithm summed over eigenvalues; spin:
    (1 - <z, w> + Delta_2(z) conj Delta_2(w))^(-lam).
    """
    if family == "spin":
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        h = 1.0 - np.sum(z * np.conj(w)) + _spin_delta2(z) * np.conj(_spin_delta2(w))
        return complex(np.exp(-lam * np.log(h)))
    Z, W = chart_matrix(family, size, z), chart_matrix(family, size, w)
    M = Z @ W.conj().T if family == "herm_complex" else Z @ np.conj(W)
    mu = np.linalg.eigvals(M)
    return complex(np.exp(-lam * np.sum(np.log1p(-mu))))


def ball_bergman_sq(alpha, lam: float) -> float:
    """Integral over the unit ball of C^d of |z^alpha|^2 (1 - |z|^2)^(lam - d - 1).

    pi^d alpha! Gamma(s + 1) / Gamma(|alpha| + d + s + 1) with s = lam - d - 1;
    for d = 1 this is the disc value pi k! Gamma(lam - 1) / Gamma(k + lam).
    """
    d = len(alpha)
    s = lam - d - 1
    fact = math.prod(math.factorial(k) for k in alpha)
    return math.pi ** d * fact * math.gamma(s + 1) / math.gamma(sum(alpha) + d + s + 1)


def halfplane_hardy_sq(coeffs, t_grid, nodes: int = 4000):
    """Hardy norm of the half-plane transport of a disc polynomial, by quadrature.

    F(w) = f((w - i)/(w + i)) (2i / (w + i)) with f = sum_k coeffs[k] z^k.
    Returns (max_t I(t), max_t sigma_t) where I(t) is the integral of
    |F(x + it)|^2 over x, and sigma_t^2 the variance of one sample of the
    Cauchy importance estimator |F|^2 pi (1 + x^2), also by quadrature.
    The sigma is the largest over the grid, since noise can move the
    estimator's maximum to another t.
    Substituting x = tan(theta) makes both integrands bounded.
    """
    th = (np.arange(nodes) + 0.5) / nodes * np.pi - np.pi / 2
    x = np.tan(th)
    jac = (np.pi / nodes) / np.cos(th) ** 2
    c = np.asarray(coeffs, dtype=complex)
    best, sig = 0.0, 0.0
    for t in t_grid:
        w = x + 1j * t
        z = (w - 1j) / (w + 1j)
        f = np.polyval(c[::-1], z)
        F2 = np.abs(f * 2j / (w + 1j)) ** 2
        first = float(np.sum(F2 * jac))
        second = float(np.sum(F2 ** 2 * np.pi * (1 + x ** 2) * jac))
        best = max(best, first)
        sig = max(sig, math.sqrt(max(second - first ** 2, 0.0)))
    return best, sig
