"""Norms, seminorms, and verification experiments for the kernel-induced
function spaces: Gram positivity, series norms over signatures, Bergman
and Hardy Monte Carlo, sup-norm and atomic estimators, and the
intertwining identities on the disc and on tube domains.

Conventions used throughout and echoed in reports:
  - kernel(lambda) means generic_norm^(-lambda) on the bounded side and the
    matching Siegel kernel on the unbounded side;
  - points travel as stacks of chart rows, a point being its row
    (as_vector): Gram matrices, Monte Carlo blocks and every function work
    on them, and a function evaluates a single point as a stack of one row;
  - all integrals are Lebesgue on the unitary chart coordinates, with no
    1/pi style normalizations, except the bounded Hardy norm: the mean over
    the Shilov boundary K.e under its K-invariant probability, on every
    family, so that ||1|| = 1;
  - series norms report (value, last-shell magnitude) so truncation quality
    is observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import cones, domains, eja, fischer, wallach
from .domains import AffineMap, MobiusMap, SiegelPoint
from .eja import AlgebraDescriptor
from .poly import SparsePolynomial, graded_table, graded_vector

PSD_HARD = 1e-8   # below -PSD_HARD * ||G||: a genuine negative witness
PSD_SOFT = 1e-10  # above -PSD_SOFT * ||G||: numerically positive
MAX_DIFFUSE_POINTS = 6  # largest diffuse configuration or frameless cluster


# ---------------------------------------------------------------------------
# holomorphic function wrapper
# ---------------------------------------------------------------------------

@dataclass
class HolFunction:
    """Batch evaluator plus optional Taylor polynomial at the base point.

    batch evaluates on an (n, d) stack of chart rows, one as_vector per
    row; a point is evaluated as a stack of one row.
    """
    alg: AlgebraDescriptor
    batch: Callable[[np.ndarray], np.ndarray]
    taylor: Optional[SparsePolynomial] = None
    domain: str = "bounded"  # or "siegel"
    # (f, lambda) when this is the Cayley transport T f of transport_to_siegel
    transported: Optional[Tuple["HolFunction", float]] = None

    def __call__(self, p) -> complex:
        return complex(self.batch(p.as_vector()[None])[0])


def poly_function(alg: AlgebraDescriptor, poly: SparsePolynomial,
                  domain: str = "bounded") -> HolFunction:
    return HolFunction(alg, poly.eval, taylor=poly, domain=domain)


def zero_function(alg: AlgebraDescriptor, domain: str = "bounded") -> HolFunction:
    nv = alg.dim_m + alg.siegel_n
    return poly_function(alg, SparsePolynomial.zero(nv), domain)


# ---------------------------------------------------------------------------
# Gram positivity
# ---------------------------------------------------------------------------

@dataclass
class GramReport:
    lam: float
    rows: np.ndarray  # (n, d) chart rows of the picture, as_vector per row
    min_eigenvalue: float
    matrix_norm: float
    verdict: str  # PSD | NotPSD | inconclusive

    @property
    def ratio(self) -> float:
        return self.min_eigenvalue / max(self.matrix_norm, 1e-300)


def gram_matrix(lam: float, alg: AlgebraDescriptor, V,
                realization: str = "bounded") -> np.ndarray:
    """[K(v_i, v_j)] over an (n, d) stack of chart rows of alg in the given
    picture (as_vector per point): one call of the picture's pair kernel."""
    V = np.asarray(V, dtype=complex)
    # the diagonal is the n exact zeros of the distance matrix
    if np.count_nonzero(np.linalg.norm(V[:, None] - V, axis=-1) < 1e-12) > len(V):
        raise ValueError("coincident points give a degenerate Gram matrix")
    pairs = (domains.siegel_log_delta_pairs if realization == "siegel"
             else domains.log_h_pairs)
    G = np.exp(-lam * pairs(alg, V, V))
    return 0.5 * (G + G.conj().T)


def psd_verdict(lam: float, alg: AlgebraDescriptor, V,
                realization: str = "bounded") -> GramReport:
    G = gram_matrix(lam, alg, V, realization)
    ev = np.linalg.eigvalsh(G)
    mn, norm = float(ev[0]), float(np.max(np.abs(ev)))
    if mn < -PSD_HARD * norm:
        verdict = "NotPSD"
    elif mn >= -PSD_SOFT * norm:
        verdict = "PSD"
    else:
        verdict = "inconclusive"
    return GramReport(lam, np.asarray(V, dtype=complex), mn, norm, verdict)


def _quadric_frame(alg: AlgebraDescriptor):
    """Eigenframe of the degree-2 minor's quadratic form.

    Returns (mu, V, eps_rel) with eigenvalues mu, orthonormal directions in
    the columns of V, and per-direction scale ratios balanced so that a
    +/- pair cluster can carry a second-order jet proportional to the minor
    itself.  None when the algebra is rank 1 or the form is one-signed.
    """
    if alg.rank < 2:
        return None
    if "quadric_frame" in alg._cache:
        return alg._cache["quadric_frame"]
    d2 = cones.minor_polynomials(alg)[1]
    nv = alg.dim_m
    M = np.zeros((nv, nv))
    for mono, c in d2.coeffs.items():
        idx = [i for i, e in enumerate(mono) for _ in range(e)]
        if len(idx) != 2:
            continue
        i, j = idx
        if i == j:
            M[i, i] += c.real
        else:
            M[i, j] += c.real / 2
            M[j, i] += c.real / 2
    vals, vecs = np.linalg.eigh(M)
    keep = np.abs(vals) > 1e-12 * max(float(np.abs(vals).max()), 1e-300)
    mu, V = vals[keep], vecs[:, keep]
    npos = int(np.sum(mu > 0))
    nneg = int(np.sum(mu < 0))
    frame = None
    if npos and nneg:
        # sum_j mu_j / eps_j^2 = 0 so the pair weights can sum to zero
        t = np.where(mu > 0, 1.0 / npos, 1.0 / nneg)
        eps_rel = np.sqrt(np.abs(mu) / t)
        frame = (mu, V, eps_rel / eps_rel.max())
    alg._cache["quadric_frame"] = frame
    return frame


def _small_rotation(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    a = scale * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(np.eye(dim) + a - a.T)
    # qr sign convention can flip columns; undo so the rotation stays near I
    return q * np.sign(np.diag(r))


def _cluster_proposal(alg: AlgebraDescriptor, rng: np.random.Generator,
                      realization: str):
    """Symmetric +/- pair cluster around a base point, as (2k, d) chart
    rows, or None when it does not fit in the bounded domain.

    Positivity failures inside the gaps of the admissible parameter set are
    jet effects: a diffuse configuration never sees them.  When the minor
    eigenframe exists the pairs follow it with balanced scales, two points
    per direction, which pins the cluster's quadratic jet on the minor;
    otherwise the directions are a random orthonormal set.
    """
    d = alg.dim_m + alg.siegel_n
    frame = _quadric_frame(alg)
    if frame is not None:
        k = len(frame[0])
        dirs = np.zeros((d, k))
        dirs[: alg.dim_m] = _small_rotation(rng, alg.dim_m, 0.04) @ frame[1]
        eps_rel = frame[2]
    else:
        k = max(1, min(MAX_DIFFUSE_POINTS // 2, d))
        dirs = np.linalg.qr(rng.standard_normal((d, k)))[0]
        eps_rel = rng.uniform(0.5, 1.0, size=k)
    eps0 = rng.uniform(0.05, 0.25)
    if realization == "siegel":
        base = np.zeros(d, dtype=complex)
        base[: alg.dim_m] = (eja._chart(alg)["ez"] * 1j
                             + 0.05 * rng.standard_normal(alg.dim_m))
        base[alg.dim_m:] = 0.05 * rng.standard_normal(alg.siegel_n)
    else:
        base = 0.05 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    off = (eps0 * eps_rel * dirs).T
    V = np.stack([base + off, base - off], axis=1).reshape(2 * k, d)
    if realization == "siegel" or domains.in_bounded_domain(V, alg=alg).all():
        return V
    return None


def wallach_search(lam: float, alg: AlgebraDescriptor, trials: int,
                   rng: np.random.Generator, realization: str = "bounded"
                   ) -> GramReport:
    """Worst Gram report over random configurations of chart rows: diffuse
    ones (domains.sample_bounded rows, uniform on the bounded domain, or
    their Cayley images from one domains.sample_siegel call) and tight +/-
    pair clusters, which expose the sign failures strictly inside the
    continuous-part gaps. Stops at the first NotPSD witness.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    worst: Optional[GramReport] = None
    for _ in range(trials):
        V = None
        if rng.uniform() < 0.5:
            V = _cluster_proposal(alg, rng, realization)
        if V is None:
            n = int(rng.integers(1, MAX_DIFFUSE_POINTS + 1))
            if realization == "siegel":
                V = domains.sample_siegel(alg, n, rng)
            else:
                V = np.array([domains.sample_bounded(alg, rng) for _ in range(n)])
        rep = psd_verdict(lam, alg, V, realization)
        if worst is None or rep.ratio < worst.ratio:
            worst = rep
        if worst.verdict == "NotPSD":
            break
    return worst


# ---------------------------------------------------------------------------
# series norms over signatures
# ---------------------------------------------------------------------------

def _taylor_of(f) -> SparsePolynomial:
    if isinstance(f, SparsePolynomial):
        return f
    if isinstance(f, HolFunction) and f.taylor is not None:
        return f.taylor
    raise ValueError("need Taylor data (a polynomial or a Taylor-backed function)")


def _series(f, g, lam: float, alg: AlgebraDescriptor, trunc_degree: int,
            cache: Optional[fischer.PsProjector], q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Degrees and terms <P_s f, P_s g>_F / w_s of the signature series up
    to trunc_degree, over the s with q_order(s, lam) = q; w_s is (lam)_s if q
    is 0, else the residue product. A degree's pairings are one product of
    its stacked P_s rows with the graded vectors and a sum over each s's rows;
    on rank 1, where P_(k) is the whole degree-k part, a sum over the degree.
    """
    fp, gp = _taylor_of(f), _taylor_of(g)
    top = min(trunc_degree, fp.degree(), gp.degree())
    if top < 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    sigs, first = wallach.graded_signatures(alg.rank, top)
    offsets = graded_table(fp.nvars, top)[0]
    vf = graded_vector(fp, top)
    vg = vf if gp is fp else graded_vector(gp, top)
    if alg.rank == 1:
        pairs = np.add.reduceat(vf * vg.conj(), offsets[:-1])
    else:
        proj = cache if cache is not None else fischer.projector(alg)
        pairs = np.zeros(len(sigs), dtype=complex)
        for d in range(top + 1):
            a, b = vf[offsets[d]:offsets[d + 1]], vg[offsets[d]:offsets[d + 1]]
            if a.any() and b.any():  # build a degree's stack only where it is used
                rows, starts = proj.stack(d)
                xf = rows @ a.conj()
                xg = xf if gp is fp else rows @ b.conj()
                pairs[first[d]:first[d + 1]] = np.add.reduceat(xg * xf.conj(), starts)
    poch, order, residue = wallach.signature_tables(lam, sigs, alg)
    keep = order == q
    return sigs.sum(axis=1)[keep], pairs[keep] / (poch if q == 0 else residue)[keep]


def h_lambda_inner(f, g, lam: float, alg: AlgebraDescriptor,
                   trunc_degree: int,
                   cache: Optional[fischer.PsProjector] = None
                   ) -> Tuple[complex, float]:
    """Truncated signature series of the lambda-pairing.

    Returns (value, last-shell magnitude); the shell is the total absolute
    contribution of the top degree, an observable truncation proxy.
    """
    if not wallach.wallach_contains(lam, alg):
        raise ValueError("parameter outside the positive set; "
                         "use h_tilde_seminorm on the discrete lattice")
    degrees, terms = _series(f, g, lam, alg, trunc_degree, cache, 0)
    return complex(terms.sum()), float(np.abs(terms[degrees == trunc_degree]).sum())


def h_lambda_norm_sq(f, lam: float, alg: AlgebraDescriptor, trunc_degree: int,
                     cache: Optional[fischer.PsProjector] = None
                     ) -> Tuple[float, float]:
    v, shell = h_lambda_inner(f, f, lam, alg, trunc_degree, cache)
    return float(v.real), shell


def _on_tilde_lattice(lam: float, alg: AlgebraDescriptor) -> bool:
    # lattice m/r - 1 - N, intersected with actual degeneracy
    base = alg.dim_m / alg.rank - 1.0
    k = round(base - lam)
    return k >= 0 and abs(lam - (base - k)) < 1e-9 and wallach.q_max(lam, alg) >= 1


def h_tilde_seminorm(f, lam: float, alg: AlgebraDescriptor, trunc_degree: int,
                     cache: Optional[fischer.PsProjector] = None) -> float:
    """Residue-weighted seminorm at a degenerate lattice parameter."""
    if not _on_tilde_lattice(lam, alg):
        raise ValueError("parameter is not on the degenerate lattice")
    _, terms = _series(f, f, lam, alg, trunc_degree, cache, wallach.q_max(lam, alg))
    return float(np.sqrt(max(terms.real.sum(), 0.0)))


def dilation_monotonicity(f, lam: float, alg: AlgebraDescriptor,
                          R_grid: Sequence[float], trunc_degree: int,
                          cache: Optional[fischer.PsProjector] = None
                          ) -> Tuple[bool, List[float]]:
    """Squared series norms of the dilates f(R .); they must grow in R."""
    if not wallach.wallach_contains(lam, alg):
        raise ValueError("parameter outside the positive set")
    degrees, terms = _series(f, f, lam, alg, trunc_degree, cache, 0)
    values = [float(terms.real @ (R ** (2.0 * degrees))) for R in R_grid]
    monotone = all(values[i + 1] >= values[i] - 1e-12 * max(abs(values[i]), 1.0)
                   for i in range(len(values) - 1))
    return monotone, values


# ---------------------------------------------------------------------------
# Cayley transport of functions
# ---------------------------------------------------------------------------

def transport_to_siegel(f: HolFunction, lam: float) -> HolFunction:
    """Unitary-up-to-constant map of the bounded-side space to the Siegel side.

    (Tf)(w) = f(C^{-1} w) * Delta^(-lambda)((w + ie)/2i) carries kernels to
    kernels, so series norms and Siegel integrals are proportional. A stack
    of rows, a point being one, takes one inverse Cayley and one log Delta.
    The result keeps (f, lambda) as `transported`: at w = C(z),
    (w + ie)/2i = (e - z)^(-1), so |Tf(w)|^2 = |f(z)|^2 |Delta(e - z)|^(2 lambda),
    which bergman_norm_mc evaluates at the bounded rows it drew. Every
    family, Siegel domains of type II included: inverse_cayley_rows carries
    the half-space block, and Delta reads only the Z_1 part.
    """
    if f.domain != "bounded":
        raise ValueError("transport expects a bounded-side function")
    alg = f.alg

    def batch(V: np.ndarray) -> np.ndarray:
        Z, logdelta = domains.inverse_cayley_rows(alg, V)
        return f.batch(Z) * np.exp(-lam * logdelta)

    return HolFunction(alg, batch, domain="siegel", transported=(f, float(lam)))


# ---------------------------------------------------------------------------
# Monte Carlo norms
# ---------------------------------------------------------------------------

BLOCK = 2 ** 14  # samples a Monte Carlo norm draws, evaluates and folds at once


def _blocks(n_samples: int) -> List[int]:
    """Block sizes of a Monte Carlo run of n_samples draws."""
    if n_samples < 1:
        raise ValueError("a Monte Carlo norm needs at least one sample")
    return [min(BLOCK, n_samples - lo) for lo in range(0, n_samples, BLOCK)]


def _fold(acc: Tuple[int, float, float], x: np.ndarray) -> Tuple[int, float, float]:
    """Running (count, mean, sum of squared deviations) updated by the block x
    with the pairwise rule of Chan, Golub and LeVeque (1979)."""
    n_a, mean_a, m2_a = acc
    n_b = len(x)
    mean_b = float(np.mean(x))
    x = x - mean_b
    m2_b = float(x @ x)
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * n_b / n,
            m2_a + m2_b + delta * delta * n_a * n_b / n)


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 in real arithmetic."""
    out = np.square(v.real)
    out += np.square(v.imag)
    return out


def bergman_norm_mc(f: HolFunction, lam: float, alg: AlgebraDescriptor,
                    n_samples: int, rng: np.random.Generator,
                    realization: str = "bounded",
                    config: Optional[domains.SiegelSamplerConfig] = None
                    ) -> Tuple[float, float]:
    """(norm, standard error) of the weighted square integral, drawn,
    evaluated and folded in blocks of BLOCK samples.

    Bounded: the integral over D of |f|^2 h(z, z)^(lambda - g) is
    c_lambda E|f|^2 under the exact draws of domains.sample_weighted_bounded,
    whose law is c_lambda^(-1) h^(lambda - g) dm (c_lambda =
    domains.bergman_constant). Siegel (tube domains and herm_complex(p, q)):
    the integral of |f|^2 Delta(Im w - Phi(omega, omega))^(lambda - g) over
    the Siegel domain is estimated at the Cayley images w = c(z) of the same
    draws, each weighted by Delta(defect)^(lambda - g) |det c'(z)|^2 c_lambda
    / h(z, z)^(lambda - g), with the defect computed from w and the Jacobian
    2^(2 dim_m) |Delta(e - z)|^(-2g) from z. A function made by
    transport_to_siegel is evaluated at the bounded rows z, as
    |f_bounded(z)|^2 |Delta(e - z)|^(2 lambda); any other through f.batch
    on the rows w. For a transported f the weight times |f(w)|^2 is
    2^(2 dim_m) c_lambda |f_bounded(z)|^2, so the weights are bounded.
    Both integrals are Lebesgue in z-chart coordinates.

    config is accepted and ignored; the benchmark still passes it, and the
    benchmark refresh of ROADMAP item 1 removes it.
    """
    blocks = _blocks(n_samples)
    c = domains.bergman_constant(alg, lam)  # raises where the integral diverges
    if realization not in ("bounded", "siegel"):
        raise ValueError(realization)
    g = float(alg.genus)
    # a transported f is evaluated at the bounded rows z, and its factor
    # |Delta(e - z)|^(2 lambda_t) joins the Jacobian's |Delta(e - z)|^(-2g)
    fb, lam_t = f.transported or (None, 0.0)

    def values(b: int) -> np.ndarray:
        V, u = domains.sample_weighted_bounded(alg, lam, b, rng)
        if realization == "bounded":
            return _abs2(f.batch(V))
        logh = np.log1p(-u).sum(axis=1)
        del u
        x = None if fb is None else _abs2(fb.batch(V))
        W, logdet = domains.cayley_rows(alg, V)
        del V
        if x is None:
            x = _abs2(f.batch(W))
        logw = domains.siegel_log_delta_rows(alg, W)
        logw -= logh
        logw *= lam - g
        logdet *= 2.0 * (lam_t - g)
        logw += logdet
        x *= np.exp(logw, out=logw)
        return x

    acc = (0, 0.0, 0.0)
    for b in blocks:
        acc = _fold(acc, values(b))
    if realization == "siegel":
        c *= 2.0 ** (2 * alg.dim_m)  # the constant factor of |det c'(z)|^2
    n, mean, m2 = acc
    est = c * mean
    se = c * math.sqrt(m2 / n) / math.sqrt(n)
    norm = math.sqrt(max(est, 0.0))
    norm_se = se / (2.0 * norm) if norm > 0 else math.sqrt(max(se, 0.0))
    return norm, norm_se


def hardy_norm_mc(f: HolFunction, alg: AlgebraDescriptor, n_samples: int,
                  rng: np.random.Generator, realization: str = "bounded",
                  cone_grid: Optional[Sequence[float]] = None) -> float:
    """Root mean square of f over a boundary, drawn, evaluated through
    f.batch and folded in blocks of BLOCK samples.

    Bounded, every family: the mean of |f|^2 over the Shilov boundary K.e
    under its K-invariant probability, drawn as the polar draws k.e at t = 1
    (domains._polar_rows; at rank 1 the sphere_rows directions). That is
    the norm of the Hardy space H^2 = H_lambda at lambda = zdim / rank
    (Faraut and Koranyi, J. Funct. Anal. 88, 1990), so ||1|| = 1; for f
    holomorphic near the closed domain (polynomials, kernels, atoms) it is
    the sup over the dilations f(rho z), reached at rho = 1.
    Siegel, tube domains only: the Lebesgue integral over the flat boundary
    x + ih with componentwise Cauchy importance sampling, sup over the cone
    grid h = t e. The benchmark's mc_norms workload checks its half-plane
    value against a quadrature of that grid's sup, so this branch changes
    only together with that check.
    """
    blocks = _blocks(n_samples)
    if realization == "bounded":
        accs = [(0, 0.0, 0.0)]

        def values(b):
            yield _abs2(f.batch(domains._polar_rows(alg, np.ones((b, alg.rank)), rng)))
    elif realization == "siegel":
        if not alg.is_tube:
            raise ValueError("flat-boundary sampling is tube-only here")
        grid = cone_grid if cone_grid is not None else (0.02, 0.1, 0.3, 1.0)
        accs = [(0, 0.0, 0.0)] * len(grid)
        ez = eja._chart(alg)["ez"]

        def values(b):
            X = rng.standard_cauchy(size=(b, alg.dim_m))
            w = np.exp(np.sum(np.log(np.pi * (1.0 + X ** 2)), axis=1))
            for t in grid:
                yield _abs2(f.batch(X + 1j * t * ez)) * w
    else:
        raise ValueError(realization)
    for b in blocks:
        accs = [_fold(acc, x) for acc, x in zip(accs, values(b))]
    return math.sqrt(max((mean for _, mean, _ in accs), default=0.0))


# ---------------------------------------------------------------------------
# sup-norm space estimator and atoms
# ---------------------------------------------------------------------------

def weighted_modulus(f: HolFunction, lam: float, p: SiegelPoint) -> float:
    defect = domains.siegel_defect(p)
    w = cones.delta_power(defect, np.full(p.alg.rank, lam / 2.0))
    return float(w * abs(f(p)))


def sup_norm_max_space(f: HolFunction, lam: float,
                       grid: Sequence[SiegelPoint]) -> float:
    """Grid lower bound of sup Delta^(lambda/2)(defect) |f|."""
    return max((weighted_modulus(f, lam, p) for p in grid), default=0.0)


def _kernel_sum(alg: AlgebraDescriptor, lam: float, C: np.ndarray,
                coeffs: np.ndarray, siegel: bool) -> HolFunction:
    """sum_j a_j K(., c_j) over the chart rows C of the centers, each Siegel
    kernel times Delta^(lambda/2)(defect of c_j): a stack of rows against
    all centers is one call of the picture's pair kernel."""
    if siegel:
        coeffs = coeffs * np.exp(0.5 * lam * domains.siegel_log_delta_rows(alg, C))
        pairs, dom = domains.siegel_log_delta_pairs, "siegel"
    else:
        pairs, dom = domains.log_h_pairs, "bounded"

    def batch(V: np.ndarray) -> np.ndarray:
        return np.exp(-lam * pairs(alg, V, C)) @ coeffs

    return HolFunction(alg, batch, domain=dom)


def siegel_kernel_atom(lam: float, center: SiegelPoint) -> HolFunction:
    """Kernel at the center, normalized so its weighted modulus there is 1."""
    return _kernel_sum(center.alg, lam, center.as_vector()[None],
                       np.ones(1), siegel=True)


@dataclass
class Lattice:
    points: list
    separation: float


def hyperbolic_distance_disc(z: complex, w: complex) -> float:
    rho = abs((z - w) / (1.0 - np.conj(w) * z))
    return 2.0 * math.atanh(min(rho, 1.0 - 1e-16))


def hyperbolic_distance_halfplane(z: complex, w: complex) -> float:
    rho = abs((z - w) / (z - np.conj(w)))
    return 2.0 * math.atanh(min(rho, 1.0 - 1e-16))


def lattice_generate(delta: float, region, alg: AlgebraDescriptor) -> Lattice:
    """Greedy 2 delta-separated maximal set on a truncated region.

    Disc: region is the outer radius. Half-plane: region is (xmax, ymin,
    ymax), the box |x| <= xmax, ymin <= y <= ymax. Higher rank needs a
    hyperbolic metric we have no closed form for.
    """
    if delta <= 0:
        raise ValueError("separation must be positive")
    if alg.rank != 1 or alg.dim_m + alg.siegel_n != 1:
        raise NotImplementedError("lattices exist for the disc and half-plane only")
    halfplane = not np.isscalar(region)
    if halfplane and not alg.is_tube:
        raise ValueError("a box region needs the half-plane realization")
    chosen: List[complex] = []
    if halfplane:
        xmax, ymin, ymax = region
        dist = hyperbolic_distance_halfplane
        # logarithmic spacing in y matches the invariant metric
        ys = np.exp(np.linspace(math.log(ymin), math.log(ymax), 40))
        cand = [complex(x, y) for y in ys
                for x in np.linspace(-xmax, xmax, 81) * y]
    else:
        rmax = float(region)
        dist = hyperbolic_distance_disc
        cand = [0j]
        for rr in np.linspace(0.05, rmax, 60):
            k = max(8, int(2 * np.pi * rr / 0.05))
            cand.extend(rr * np.exp(2j * np.pi * np.arange(k) / k))
    for c in cand:
        if all(dist(c, p) >= 2.0 * delta for p in chosen):
            chosen.append(c)
    if halfplane:
        pts = [domains.siegel_from_vector(alg, np.array([c])) for c in chosen]
    else:
        pts = [domains.bounded_from_vector(alg, np.array([c])) for c in chosen]
    return Lattice(pts, delta)


def atomic_synthesis(coeffs: Sequence[complex], lattice: Lattice,
                     lam: float) -> HolFunction:
    """Finite atomic sum sum_j a_j (normalized kernel atom at p_j)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be summable (finite)")
    pts = lattice.points[: len(coeffs)]
    if len(pts) < len(coeffs):
        raise ValueError("more coefficients than lattice points")
    alg = pts[0].alg
    if lam <= 2.0 * (alg.dim_m / alg.rank - 1.0):
        raise ValueError("atoms need a parameter above 2(m/r - 1)")
    C = np.array([p.as_vector() for p in pts])
    return _kernel_sum(alg, lam, C, coeffs, isinstance(pts[0], SiegelPoint))


# ---------------------------------------------------------------------------
# disc Bloch / Besov
# ---------------------------------------------------------------------------

def bloch_seminorm_disc(f: HolFunction, grid: Sequence[complex]) -> float:
    fp = _taylor_of(f).derivative(0)
    return max(float((1.0 - abs(z) ** 2) * abs(fp.eval(np.array([z]))))
               for z in grid)


def besov1_norm_disc(f: HolFunction, n_radial: int = 200,
                     n_angular: int = 256) -> float:
    """|f(0)| + |f'(0)| + integral over the disc of |f''| (chart Lebesgue)."""
    p = _taylor_of(f)
    fp = p.derivative(0)
    fpp = fp.derivative(0)
    rs = (np.arange(n_radial) + 0.5) / n_radial
    ths = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
    Zs = rs[:, None] * np.exp(1j * ths)[None, :]
    vals = np.abs(fpp.eval(Zs.ravel()[:, None]))
    integral = float(np.sum(vals * np.repeat(rs, n_angular))
                     * (1.0 / n_radial) * (2.0 * np.pi / n_angular))
    z0 = np.zeros(1, dtype=complex)
    return float(abs(p.eval(z0)) + abs(fp.eval(z0)) + integral)


# ---------------------------------------------------------------------------
# affine action and exact invariance
# ---------------------------------------------------------------------------

def affine_inverse(phi: AffineMap) -> AffineMap:
    """phi = (translation) о (triangular); the Heisenberg inverse is plain
    negation because Phi(zeta, zeta) has no imaginary part."""
    alg = phi.alg
    ti = phi.tri.inverse()
    z0 = -phi.zeta0 if phi.zeta0 is not None else None
    x0 = -phi.x0
    inv_n = AffineMap(alg, z0, x0, cones.identity_triangular(alg))
    inv_t = AffineMap(alg,
                      np.zeros_like(phi.zeta0) if phi.zeta0 is not None else None,
                      0.0 * phi.x0, ti)
    return domains.affine_compose(inv_t, inv_n)


def u_lambda_affine(f: HolFunction, phi: AffineMap, lam: float) -> HolFunction:
    """(f о phi^{-1}) |J phi^{-1}|^(lambda/g) with the holomorphic Jacobian
    modulus (the square root of the real one); affine Jacobians are constant.
    On the disc this is the usual |phi'|^(lambda/2) weight. phi^{-1} acts on
    the rows as the (A, b) of domains.affine_chart."""
    A, b = domains.affine_chart(affine_inverse(phi))
    jac = 1.0 / math.sqrt(domains.affine_real_jacobian(phi))
    scale = jac ** (lam / f.alg.genus)

    def batch(V: np.ndarray) -> np.ndarray:
        return f.batch(V @ A.T + b) * scale

    return HolFunction(f.alg, batch, domain="siegel")


# ---------------------------------------------------------------------------
# intertwining on the disc: exact series manipulation
# ---------------------------------------------------------------------------
# A series in eps truncated at eps^order is its coefficient array a[0..order]:
# a product is a convolution cut at order, and f(x(eps)) for a polynomial f is
# Horner's rule on f's coefficient array. Every power b = a^alpha, whether the
# inverse, an integer or a fractional exponent, solves a b' = alpha a' b,
# which fixes b_k from b_0..b_(k-1) once b_0 = a_0^alpha is chosen; the branch
# enters only through b_0, so one recurrence covers every real exponent.

def _ser_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def _ser_pow(a: np.ndarray, alpha: float, order: int) -> np.ndarray:
    """a(eps)^alpha with a(0) != 0, principal branch of a(0)^alpha.

    k a_0 b_k = sum_(j=1..k) ((alpha + 1) j - k) a_j b_(k-j) (Knuth, TAOCP
    Vol. 2, 4.7).
    """
    a0 = complex(a[0])
    if a0 == 0:
        raise ValueError("series has no power at 0")
    a = np.append(a, np.zeros(order))[: order + 1]
    b = np.zeros(order + 1, dtype=complex)
    b[0] = a0 ** alpha
    for k in range(1, order + 1):
        j = np.arange(1, k + 1)
        b[k] = np.dot(((alpha + 1) * j - k) * a[1: k + 1], b[k - 1:: -1]) / (k * a0)
    return b


def _ser_compose(f: SparsePolynomial, x: np.ndarray, order: int) -> np.ndarray:
    """f(x(eps)) for a one-variable polynomial f, by Horner's rule."""
    coef = np.zeros(f.degree() + 1, dtype=complex)
    for (k,), c in f.coeffs.items():
        coef[k] = c
    out = np.zeros(order + 1, dtype=complex)
    for c in coef[::-1]:
        out = _ser_mul(out, x, order)
        out[0] += c
    return out


def _mobius_scalar(phi: MobiusMap) -> Tuple[complex, complex]:
    """(u, b) with phi(z) = u (b - z)/(1 - conj(b) z) on the disc."""
    return complex(phi.unitary[0, 0]), complex(phi.b[0])


def _disc_phi_series(phi: MobiusMap, z0: complex, order: int):
    """phi(z0 + eps), sqrt(phi') (z0 + eps) as exact truncated series."""
    u, b = _mobius_scalar(phi)
    bb = np.conj(b)
    Binv = _ser_pow(np.array([1.0 - bb * z0, -bb]), -1.0, order)
    phi_series = _ser_mul(np.array([u * (b - z0), -u]), Binv, order)
    sq = np.sqrt(complex(-u * (1.0 - abs(b) ** 2)))
    return phi_series, Binv * sq  # the second squares to phi'


def intertwine_check_disc(phi: MobiusMap, f: SparsePolynomial, lam: int,
                          test_points: Sequence[complex]) -> float:
    """max |(U_lam f)^((1-lam)) - U_{2-lam} f^((1-lam))| over the points.

    lam is a non-positive integer; all derivatives come from exact series
    composition around each test point.
    """
    if lam > 0 or lam != int(lam):
        raise ValueError("the derivative identity needs lambda in {0, -1, ...}")
    lam = int(lam)
    n = 1 - lam
    worst = 0.0
    for z0 in test_points:
        phis, ss = _disc_phi_series(phi, complex(z0), n)
        lhs = _ser_mul(_ser_compose(f, phis, n), _ser_pow(ss, lam, n), n)[n]
        # f(w0 + eps) at w0 = phi(z0): its eps^n coefficient is f^(n)(w0) / n!
        rhs = _ser_compose(f, np.array([phis[0], 1.0]), n)[n] * ss[0] ** (2 - lam)
        worst = max(worst, math.factorial(n) * abs(lhs - rhs))
    return worst


def u_lambda_disc_taylor(phi: MobiusMap, f: SparsePolynomial, lam: float,
                         order: int) -> SparsePolynomial:
    """Taylor polynomial at 0 of (f о phi) (phi')^(lambda/2), exact series."""
    phis, ss = _disc_phi_series(phi, 0.0, order)
    series = _ser_mul(_ser_compose(f, phis, order), _ser_pow(ss, lam, order), order)
    return SparsePolynomial(1, {(k,): c for k, c in enumerate(series)})


# ---------------------------------------------------------------------------
# box operator and tube intertwining
# ---------------------------------------------------------------------------

def box_operator(alg: AlgebraDescriptor, f: SparsePolynomial,
                 k: int = 1) -> SparsePolynomial:
    """Delta(partial)^k f in the trace-orthonormal chart coordinates."""
    if not alg.is_tube:
        raise ValueError("the wave-type operator lives on tube domains")
    if f.nvars != alg.dim_m:
        raise ValueError("polynomial lives on the wrong chart")
    symbol = cones.minor_polynomials(alg)[alg.rank - 1]
    out = f
    for _ in range(k):
        acc = SparsePolynomial.zero(alg.dim_m)
        for alpha, c in symbol.coeffs.items():
            acc = acc + c * out.derivative_multi(alpha)
        out = acc
    return out


def intertwine_check_tube(alg: AlgebraDescriptor, f: SparsePolynomial,
                          lam: float, affine_maps: Sequence[AffineMap],
                          test_points: Sequence[SiegelPoint]) -> float:
    """Residual of box^k carrying the affine lambda-action to lambda + 2k.

    k = m/r - lam must be a non-negative integer. Everything is exact
    polynomial algebra: compose with the inverse affine map, scale by the
    constant Jacobian power, apply the symbol-of-Delta operator; the
    inverse map acts on the chart as the (M, shift) of domains.affine_chart.
    """
    if not alg.is_tube:
        raise ValueError("tube families only")
    mr = alg.dim_m / alg.rank
    k = round(mr - lam)
    if k < 0 or abs(mr - lam - k) > 1e-9:
        raise ValueError("m/r - lambda must be a non-negative integer")
    lam2 = lam + 2 * k
    pts = np.array([p.as_vector() for p in test_points])
    worst = 0.0
    for phi in affine_maps:
        M, shift = domains.affine_chart(affine_inverse(phi))
        jac_inv = 1.0 / math.sqrt(domains.affine_real_jacobian(phi))
        fu = f.compose_affine(M, shift) * jac_inv ** (lam / alg.genus)
        lhs = box_operator(alg, fu, k)
        rhs = (box_operator(alg, f, k).compose_affine(M, shift)
               * jac_inv ** (lam2 / alg.genus))
        diff = lhs - rhs
        if diff.coeffs:
            worst = max(worst, float(np.max(np.abs(diff.eval(pts)))))
    return worst
