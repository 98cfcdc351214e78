"""The Cayley transform and its inverse on one chart row, in closed form.

These share nothing with domains.cayley_rows and inverse_cayley_rows but
the chart: the matrix families take i (I + Z)(I - Z)^(-1) and
(W - iI)(W + iI)^(-1) on eja.embed_matrix, spin takes eja.inverse and
eja.jordan_product. The tests compare the row routines against them.
"""

import numpy as np

from symcone import eja


def _split(alg, v):
    v = np.asarray(v, dtype=complex)
    z = eja.from_zchart(alg, v[: alg.dim_m]).as_complex()
    return z, (v[alg.dim_m:].reshape(alg.size, -1) if alg.siegel_n else None)


def _join(w, block):
    v = eja.to_zchart(w)
    return v if block is None else np.concatenate([v, block.ravel()])


def cayley(alg, v):
    """Siegel row of w = i (e + z)(e - z)^(-1), omega = (e - z)^(-1) zeta."""
    z, zeta = _split(alg, v)
    if alg.family == "spin":
        e = eja.identity(alg)
        return _join(1j * eja.jordan_product(e + z, eja.inverse(e - z)), None)
    Z = eja.embed_matrix(z)
    I = np.eye(len(Z))
    inv = np.linalg.inv(I - Z)
    w = eja.unembed_matrix(alg, 1j * (I + Z) @ inv)
    return _join(w, None if zeta is None else inv @ zeta)


def inverse_cayley(alg, v):
    """Bounded row of z = (w - ie)(w + ie)^(-1), zeta = 2i (w + ie)^(-1) omega."""
    w, omega = _split(alg, v)
    if alg.family == "spin":
        e = eja.identity(alg)
        return _join(eja.jordan_product(w - 1j * e, eja.inverse(w + 1j * e)), None)
    W = eja.embed_matrix(w)
    I = np.eye(len(W))
    inv = np.linalg.inv(W + 1j * I)
    z = eja.unembed_matrix(alg, (W - 1j * I) @ inv)
    return _join(z, None if omega is None else 2j * inv @ omega)
