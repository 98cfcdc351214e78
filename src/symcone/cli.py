"""Command-line harness: structure constants, positivity scans, verification
suites, and report plumbing.

Reports are machine-readable JSON (schema 1) or a flat CSV projection.  Same
seed and config give byte-identical report files; wall-clock timings go to a
separate `<output>.timing.json` sidecar so the main report stays stable.
The only environment hook is SYMCONE_OUTPUT_DIR, which re-roots relative
output paths; everything else flows through flags or --config.
"""

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import click
import numpy as np

from . import __version__, cones, domains, eja, fischer, spaces, wallach
from .eja import Element
from .poly import SparsePolynomial

SCHEMA = 1

CONVENTIONS = {
    "measure": "lebesgue on chart coordinates, no 1/pi factors",
    "kernel": "generic_norm^(-lambda), bounded side; matching Siegel kernel",
    "psd": "NotPSD below -1e-8*norm, PSD above -1e-10*norm, else inconclusive",
    "series": "truncated signature sums report the last-shell magnitude",
}

_SUITE_ORDER = ("algebra", "cone", "fischer", "kernels", "hnorm",
                "htilde", "intertwine", "minmax", "bergman")


# ---------------------------------------------------------------------------
# config and report plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    family: str = "disc"
    rank: int = 0
    dim: int = 0
    p: int = 0
    q: int = 0
    lams: tuple = ()
    trials: int = 500
    trunc: int = 0
    samples: int = 50000
    realization: str = "bounded"
    seed: int = None
    output: str = ""
    fmt: str = "json"

    def __post_init__(self):
        if self.command != "constants" and self.seed is None:
            raise click.UsageError("--seed is required; there is no entropy default")
        if self.trials < 1 or self.samples < 1:
            raise click.UsageError("counts must be positive")
        if self.trunc < 0:
            raise click.UsageError("truncation must be non-negative")

    def echo(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if v not in (None, "", 0, ())}
        d["command"] = self.command
        if self.seed is not None:
            d["seed"] = self.seed
        d["lams"] = list(self.lams)
        return d


def resolve_family(cfg: RunConfig) -> eja.AlgebraDescriptor:
    fam = cfg.family.lower()
    try:
        if fam == "disc":
            return eja.herm_complex(1, 1)
        if fam == "ball":
            return eja.herm_complex(1, cfg.dim or 2)
        if fam == "sym":
            if not cfg.rank:
                raise click.UsageError("--family sym needs --rank")
            return eja.sym_real(cfg.rank)
        if fam == "herm":
            p = cfg.p or cfg.rank
            if not p:
                raise click.UsageError("--family herm needs --p (and optionally --q)")
            return eja.herm_complex(p, cfg.q or p)
        if fam == "quat":
            if not cfg.rank:
                raise click.UsageError("--family quat needs --rank")
            return eja.herm_quaternion(cfg.rank)
        if fam == "spin":
            if not cfg.dim:
                raise click.UsageError("--family spin needs --dim")
            return eja.spin_factor(cfg.dim)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown family {cfg.family!r}")


def record(name, value, tolerance, status, inputs, convention, runtime=0.0):
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "status": status, "inputs": inputs, "convention": convention,
            "runtime": runtime}


def check(name, value, tolerance, inputs, convention, runtime=0.0):
    status = "pass" if value <= tolerance else "fail"
    return record(name, value, tolerance, status, inputs, convention, runtime)


def build_report(cfg: RunConfig, records) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in records:
        counts[r["status"]] += 1
    return {"schema": SCHEMA, "version": __version__, "conventions": CONVENTIONS,
            "config": cfg.echo(), "records": records, "summary": counts}


def _output_path(path: str) -> str:
    root = os.environ.get("SYMCONE_OUTPUT_DIR", "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def write_report(report: dict, path: str, fmt: str, total_runtime: float):
    """Writes the stable report plus a timing sidecar next to it."""
    path = _output_path(path)
    timings = {}
    stable = dict(report)
    stable["records"] = []
    for r in report["records"]:
        r = dict(r)
        timings[r["name"]] = r.pop("runtime", 0.0)
        stable["records"].append(r)
    if fmt == "json":
        text = json.dumps(stable, sort_keys=True, indent=2) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    else:
        cols = ("name", "status", "value", "tolerance", "convention", "inputs")
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(cols)
            for r in stable["records"]:
                wr.writerow([r["name"], r["status"], repr(r["value"]),
                             repr(r["tolerance"]), r["convention"],
                             json.dumps(r["inputs"], sort_keys=True)])
    with open(path + ".timing.json", "w") as fh:
        json.dump({"total_seconds": total_runtime, "records": timings}, fh,
                  sort_keys=True, indent=2)


def finish(cfg: RunConfig, records, t0: float) -> None:
    report = build_report(cfg, records)
    for r in records:
        click.echo(f'{r["name"]}: {r["status"]} '
                   f'(value={r["value"]:.6g}, tol={r["tolerance"]:.2g})')
    s = report["summary"]
    click.echo(f'pass {s["pass"]} fail {s["fail"]} inconclusive {s["inconclusive"]}')
    if cfg.output:
        write_report(report, cfg.output, cfg.fmt, time.perf_counter() - t0)
        click.echo(f"report: {_output_path(cfg.output)}")
    if s["fail"]:
        sys.exit(1)


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    # stable per-suite streams: `verify hnorm` matches the hnorm slice of
    # `verify all` for the same seed
    key = _SUITE_ORDER.index(suite)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _apply_config_file(ctx: click.Context, cfg_path: str):
    """Values from the JSON config file fill in parameters left at their
    command-line defaults; explicit flags always win."""
    if not cfg_path:
        return
    try:
        with open(cfg_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"config file: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold one JSON object")
    aliases = {"lambda": "lams", "format": "fmt"}
    for key, value in data.items():
        key = aliases.get(key, key)
        if key not in ctx.params:
            raise click.UsageError(f"config file key {key!r} matches no flag")
        src = ctx.get_parameter_source(key)
        if src == click.core.ParameterSource.DEFAULT:
            if isinstance(ctx.params[key], tuple) and not isinstance(value, list):
                value = [value]
            if isinstance(value, list):
                value = tuple(value)
            ctx.params[key] = value


_common = [
    click.option("--family", default="disc", show_default=True,
                 help="disc | ball | sym | herm | quat | spin"),
    click.option("--rank", default=0, type=int, help="rank for sym/quat families"),
    click.option("--dim", default=0, type=int, help="dimension for ball/spin"),
    click.option("--p", default=0, type=int, help="rows for herm"),
    click.option("--q", default=0, type=int, help="columns for herm"),
    click.option("--lambda", "lams", multiple=True, type=float,
                 help="parameter value; repeatable"),
    click.option("--trials", default=500, show_default=True, type=int),
    click.option("--trunc", default=0, type=int,
                 help="series truncation degree (0 = family default)"),
    click.option("--samples", default=50000, show_default=True, type=int),
    click.option("--realization", default="bounded", show_default=True,
                 type=click.Choice(["bounded", "siegel"])),
    click.option("--seed", default=None, type=int,
                 help="RNG seed (required; no entropy default)"),
    click.option("--output", default="", help="report file path"),
    click.option("--format", "fmt", default="json", show_default=True,
                 type=click.Choice(["json", "csv"])),
    click.option("--config", "config_path", default="",
                 help="JSON file of flag defaults"),
]


def common_options(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


def make_config(ctx, command, **kw) -> RunConfig:
    _apply_config_file(ctx, kw.pop("config_path", ""))
    kw = {k: ctx.params.get(k, v) for k, v in kw.items()}
    return RunConfig(command=command, **kw)


@click.group()
@click.version_option(version=__version__)
def main():
    """Verification harness for symmetric-cone function spaces."""


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@main.command()
@common_options
@click.pass_context
def constants(ctx, **kw):
    """Structure constants r, a, m, n, g of one domain family."""
    t0 = time.perf_counter()
    cfg = make_config(ctx, "constants", **kw)
    alg = resolve_family(cfg)
    vals = {"r": alg.rank, "a": alg.peirce_a, "m": alg.dim_m,
            "n": alg.siegel_n, "g": alg.genus}
    for k, v in vals.items():
        click.echo(f"{k} = {v}")
    records = [record(f"constants/{k}", v, 0.0, "pass",
                      {"family": cfg.family}, "structure constant")
               for k, v in vals.items()]
    gap = abs(alg.dim_m / alg.rank - 1.0 - alg.peirce_a * (alg.rank - 1) / 2.0)
    records.append(check("constants/peirce-identity", gap, 1e-12,
                         {"identity": "m/r - 1 = a(r-1)/2"}, "exact"))
    click.echo(f"m/r - 1 = a(r-1)/2 holds (gap {gap:.1e})")
    finish(cfg, records, t0)


# ---------------------------------------------------------------------------
# wallach scan
# ---------------------------------------------------------------------------

@main.command(name="wallach")
@common_options
@click.pass_context
def wallach_cmd(ctx, **kw):
    """Gram positivity scan over a parameter grid."""
    t0 = time.perf_counter()
    cfg = make_config(ctx, "wallach", **kw)
    if not cfg.lams:
        raise click.UsageError("give at least one --lambda (or 'lambda' in --config)")
    alg = resolve_family(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.lams))
    records = []
    for i, lam in enumerate(cfg.lams):
        t1 = time.perf_counter()
        rng = np.random.default_rng(children[i])
        rep = spaces.wallach_search(lam, alg, cfg.trials, rng,
                                    realization=cfg.realization)
        member = wallach.wallach_contains(lam, alg)
        if rep.verdict == "inconclusive":
            status = "inconclusive"
        else:
            status = "pass" if (rep.verdict == "PSD") == member else "fail"
        records.append(record(
            f"wallach[lam={lam:g}]", rep.ratio, spaces.PSD_HARD, status,
            {"lambda": lam, "trials": cfg.trials, "realization": cfg.realization,
             "verdict": rep.verdict, "in_set": member},
            "min-eig ratio of the worst sampled Gram",
            time.perf_counter() - t1))
    finish(cfg, records, t0)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

_ZOO = (eja.sym_real(2), eja.sym_real(3), eja.herm_complex(1, 1),
        eja.herm_complex(2, 2), eja.herm_complex(2, 3),
        eja.herm_quaternion(2), eja.spin_factor(4), eja.spin_factor(5))


def _rand_affine(alg, rng):
    spread = 0.5  # scale of the Heisenberg and triangular parameters
    zeta0 = None
    if alg.siegel_n:
        shape = (alg.size, alg.cols - alg.size)
        zeta0 = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    x0 = Element(alg, spread * rng.normal(size=alg.dim_m))
    tri = domains._triangular_from_params(alg, spread * rng.normal(size=alg.dim_m))
    return domains.AffineMap(alg, zeta0, x0, tri)


def _rand_poly(nv, deg, rng):
    p = SparsePolynomial.zero(nv)
    for d in range(deg + 1):
        for alpha in fischer.homogeneous_monomials(nv, d):
            if rng.uniform() < 0.5:
                p.coeffs[alpha] = rng.normal() + 1j * rng.normal()
    if not p.coeffs:
        p.coeffs[(0,) * nv] = 1.0
    return p


def suite_algebra(cfg, rng):
    out = []
    for alg in _ZOO:
        gap = abs(alg.dim_m / alg.rank - 1.0
                  - alg.peirce_a * (alg.rank - 1) / 2.0)
        out.append(check(f"algebra/peirce-identity[{alg.family}:{alg.rank}]",
                         gap, 1e-12, {"family": alg.family}, "exact"))
        dim_gap = abs(alg.dim_m
                      - (alg.rank + alg.peirce_a * alg.rank * (alg.rank - 1) / 2))
        out.append(check(f"algebra/dimension[{alg.family}:{alg.rank}]",
                         dim_gap, 0.5, {"family": alg.family}, "exact integer"))
        worst = 0.0
        for _ in range(5):
            x = Element(alg, rng.normal(size=alg.dim_m))
            back = eja.from_zchart(alg, eja.to_zchart(x))
            worst = max(worst, float(np.max(np.abs(back.coords - x.coords))))
        out.append(check(f"algebra/chart-roundtrip[{alg.family}:{alg.rank}]",
                         worst, 1e-12, {"family": alg.family}, "chart"))
    return out


def suite_cone(cfg, rng):
    out = []
    for alg in _ZOO:
        e = np.zeros(alg.zdim, dtype=complex)
        e[: alg.dim_m] = eja.to_zchart(eja.identity(alg))
        gap = max(abs(complex(m.eval(e)) - 1.0)
                  for m in cones.minor_polynomials(alg))
        out.append(check(f"cone/minor-normalization[{alg.family}:{alg.rank}]",
                         gap, 1e-10, {"family": alg.family}, "Delta_j(e) = 1"))
        worst_chol, worst_char = 0.0, 0.0
        for _ in range(4):
            t = domains._triangular_from_params(alg, 0.4 * rng.normal(size=alg.dim_m))
            y = Element(alg, np.real(cones.t_action(t, eja.identity(alg)).coords))
            t2 = cones.cholesky_t(y)
            y2 = Element(alg, np.real(cones.t_action(t2, eja.identity(alg)).coords))
            worst_chol = max(worst_chol, float(np.max(np.abs(y2.coords - y.coords))))
            s = np.full(alg.rank, float(alg.genus))
            lhs = cones.character(t, s)
            rhs = cones.delta_power(y, s)
            worst_char = max(worst_char, abs(lhs - rhs) / abs(rhs))
        out.append(check(f"cone/cholesky-roundtrip[{alg.family}:{alg.rank}]",
                         worst_chol, 1e-8, {"family": alg.family}, "t e t* = y"))
        out.append(check(f"cone/character[{alg.family}:{alg.rank}]",
                         worst_char, 1e-8, {"family": alg.family},
                         "character vs minor powers at te"))
    return out


def suite_fischer(cfg, rng):
    out = []
    worst = 0.0
    for alpha in ((2, 0), (1, 1), (3, 2)):
        za = SparsePolynomial(2, {alpha: 1.0})
        want = math.factorial(alpha[0]) * math.factorial(alpha[1])
        worst = max(worst, abs(fischer.fischer_inner(za, za) - want))
    out.append(check("fischer/monomial-norms", worst, 1e-12,
                     {"nvars": 2}, "alpha! pairing"))
    ball2 = eja.herm_complex(1, 2)
    proj = fischer.projector(ball2)
    dims_ok = max(abs(proj.dim((k,)) - (k + 1)) for k in range(5))
    out.append(check("fischer/rank1-dims[ball2]", dims_ok, 0.5,
                     {"k_max": 4}, "dim P_(k) = k+1"))
    sr2 = eja.sym_real(2)
    psr = fischer.projector(sr2)
    f = _rand_poly(3, 4, rng)
    worst = 0.0
    for s in wallach.enumerate_signatures(2, 4):
        pf = psr.project(f, s)
        pf2 = psr.project(pf, s)
        worst = max(worst, fischer.fischer_norm(pf2 - pf))
    out.append(check("fischer/idempotence[sym2]", worst, 1e-8,
                     {"degree": 4}, "Fischer norm"))
    return out


def suite_kernels(cfg, rng):
    out = []
    for alg in (eja.herm_complex(1, 1), eja.sym_real(2),
                eja.spin_factor(4), eja.herm_complex(2, 3)):
        worst = 0.0
        for _ in range(200):
            d = alg.dim_m + alg.siegel_n
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            p = domains.bounded_from_vector(alg, v)
            p = domains.bounded_from_vector(
                alg, 0.6 * v / max(domains.spectral_norm(p), 1e-12))
            back = domains.inverse_cayley(domains.cayley(p))
            worst = max(worst, float(np.max(np.abs(
                spaces.point_vector(back) - spaces.point_vector(p)))))
        out.append(check(f"kernels/cayley-roundtrip[{alg.family}:{alg.rank}]",
                         worst, 1e-10, {"points": 200}, "chart sup"))
    for alg, tag in ((eja.herm_complex(1, 1), "disc"),
                     (eja.herm_complex(1, 2), "ball2")):
        g = float(alg.genus)
        worst = 0.0
        for _ in range(20):
            phi = domains.mobius_sample(alg, rng)
            d = alg.dim_m + alg.siegel_n
            z = domains.bounded_from_vector(
                alg, 0.5 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)))
            w = domains.bounded_from_vector(
                alg, 0.5 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)))
            lhs = domains.kernel_bounded(g, z, w)
            rhs = (domains.mobius_jacobian(phi, z)
                   * domains.kernel_bounded(g, domains.mobius_apply(phi, z),
                                            domains.mobius_apply(phi, w))
                   * np.conj(domains.mobius_jacobian(phi, w)))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        out.append(check(f"kernels/transformation-law[{tag}]", worst, 1e-9,
                         {"maps": 20, "lambda": g}, "relative"))
    return out


def suite_hnorm(cfg, rng):
    alg = resolve_family(cfg)
    trunc = cfg.trunc or (30 if alg.rank == 1 else 8)
    radius = 0.3 if alg.rank == 1 else 0.18
    lam = cfg.lams[0] if cfg.lams else (1.5 if alg.rank == 1
                                        else alg.peirce_a * (alg.rank - 1) / 2 + 2.0)
    if not wallach.wallach_contains(lam, alg):
        raise click.UsageError(f"lambda = {lam:g} lies outside the positive set")
    proj = fischer.projector(alg)
    out = []
    d = alg.dim_m + alg.siegel_n
    for i in range(10):
        vw = radius * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
        vv = radius * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
        w, wp = (domains.bounded_from_vector(alg, x) for x in (vw, vv))
        kw = fischer.kernel_taylor(lam, w, trunc)
        kwp = fischer.kernel_taylor(lam, wp, trunc)
        got, shell = spaces.h_lambda_inner(kw, kwp, lam, alg, trunc, cache=proj)
        want = domains.kernel_bounded(lam, wp, w)
        out.append(check(f"hnorm/reproducing[{i}]", abs(got - want),
                         max(1e-6, 10 * shell),
                         {"lambda": lam, "trunc": trunc},
                         "series vs closed kernel"))
    if alg.rank == 1 and alg.dim_m + alg.siegel_n == 1:
        z = SparsePolynomial.variable(1, 0)
        worst = max(abs(spaces.h_lambda_inner(z ** k, z ** k, 1.0, alg, 42)[0] - 1.0)
                    for k in range(1, 41))
        out.append(check("hnorm/hardy-monomials", worst, 1e-10,
                         {"lambda": 1.0, "k_max": 40}, "k!/(1)_k = 1"))
    return out


def suite_htilde(cfg, rng):
    disc = eja.herm_complex(1, 1)
    z = SparsePolynomial.variable(1, 0)
    out = []
    worst = max(abs(spaces.h_tilde_seminorm(z ** k, 0.0, disc, 14) ** 2 - k)
                for k in range(1, 11))
    out.append(check("htilde/dirichlet-monomials", worst, 1e-9,
                     {"lambda": 0.0, "k_max": 10}, "seminorm^2 = k"))
    for i in range(2):
        f = _rand_poly(1, 5, rng)
        sem2 = spaces.h_tilde_seminorm(f, 0.0, disc, 10) ** 2
        fp = f.derivative(0)
        r = (np.arange(240) + 0.5) / 240
        th = 2.0 * np.pi * np.arange(64) / 64
        zs = np.outer(r, np.exp(1j * th)).ravel()
        quad = float(np.sum(np.abs(fp.eval(zs[:, None])) ** 2 * np.repeat(r, 64))
                     * (1.0 / 240) * (2 * np.pi / 64))
        out.append(check(f"htilde/dirichlet-quadrature[{i}]",
                         abs(quad / (np.pi * sem2) - 1.0), 1e-2,
                         {"degree": 5}, "integral / (pi * seminorm^2)"))
    return out


def suite_intertwine(cfg, rng):
    disc = eja.herm_complex(1, 1)
    lams = [l for l in (cfg.lams or (0.0, -1.0, -2.0))]
    out = []
    pts = [0.0, 0.25, -0.2 + 0.3j, -0.1j]
    for lam in lams:
        worst = 0.0
        for _ in range(5):
            phi = domains.mobius_sample(disc, rng)
            f = _rand_poly(1, 5, rng)
            try:
                worst = max(worst, spaces.intertwine_check_disc(phi, f, lam, pts))
            except ValueError as exc:
                raise click.UsageError(str(exc))
        out.append(check(f"intertwine/disc[lam={lam:g}]", worst, 1e-8,
                         {"lambda": lam, "maps": 5}, "sup residual"))
    sr2 = eja.sym_real(2)
    lam_tube = sr2.dim_m / sr2.rank - 2.0
    maps = [_rand_affine(sr2, rng) for _ in range(3)]
    tpts = [domains.sample_siegel(sr2, rng)[0] for _ in range(5)]
    res = spaces.intertwine_check_tube(sr2, _rand_poly(3, 4, rng),
                                       lam_tube, maps, tpts)
    out.append(check("intertwine/tube[sym2]", res, 1e-8,
                     {"lambda": lam_tube, "maps": 3}, "sup residual"))
    return out


def suite_minmax(cfg, rng):
    disc = eja.herm_complex(1, 1)
    grid = [0.95 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(200)]
    c_lo, c_hi = 0.0, 0.0
    for _ in range(20):
        f = _rand_poly(1, 6, rng)
        ff = spaces.poly_function(disc, f)
        besov = spaces.besov1_norm_disc(ff)
        c_lo = max(c_lo, spaces.h_tilde_seminorm(f, 0.0, disc, 12) / besov)
        c_hi = max(c_hi, spaces.bloch_seminorm_disc(ff, grid) / besov)
    out = []
    for name, c in (("minmax/htilde-vs-besov", c_lo),
                    ("minmax/bloch-vs-besov", c_hi)):
        status = "pass" if 0.0 < c < np.inf else "fail"
        out.append(record(name, c, 0.0, status, {"polynomials": 20},
                          "reported constant, finiteness only"))
    return out


def suite_bergman(cfg, rng):
    disc = eja.herm_complex(1, 1)
    one = spaces.poly_function(disc, SparsePolynomial.constant(1, 1.0))
    fz = spaces.poly_function(disc, SparsePolynomial.variable(1, 0))
    out = []
    norm, se = spaces.bergman_norm_mc(one, 2.0, disc, cfg.samples, rng)
    tol = max(8 * se * 2 * norm, 1e-12)
    out.append(check("bergman/disc-area", abs(norm ** 2 - np.pi), tol,
                     {"lambda": 2.0, "samples": cfg.samples},
                     "Lebesgue area pi, 8 sigma"))
    n1, _ = spaces.bergman_norm_mc(one, 3.0, disc, cfg.samples, rng)
    nz, _ = spaces.bergman_norm_mc(fz, 3.0, disc, cfg.samples, rng)
    out.append(check("bergman/monomial-ratio", abs(n1 ** 2 / nz ** 2 - 3.0), 0.15,
                     {"lambda": 3.0, "samples": cfg.samples}, "(lambda)_1 = 3"))
    sr2 = eja.sym_real(2)
    ratios = []
    for p in (SparsePolynomial.constant(3, 1.0), SparsePolynomial.variable(3, 1),
              _rand_poly(3, 2, rng)):
        fb = spaces.poly_function(sr2, p)
        fs = spaces.transport_to_siegel(fb, 4.0)
        est, _ = spaces.bergman_norm_mc(fs, 4.0, sr2, cfg.samples, rng,
                                        realization="siegel")
        ratios.append(est ** 2 / spaces.h_lambda_norm_sq(p, 4.0, sr2, 8)[0])
    mid = float(np.median(ratios))
    spread = max(abs(r / mid - 1.0) for r in ratios)
    out.append(check("bergman/siegel-proportionality", spread, 0.2,
                     {"lambda": 4.0, "samples": cfg.samples, "polynomials": 3},
                     "transported MC norm over series norm"))
    return out


_SUITES = {"algebra": suite_algebra, "cone": suite_cone,
           "fischer": suite_fischer, "kernels": suite_kernels,
           "hnorm": suite_hnorm, "htilde": suite_htilde,
           "intertwine": suite_intertwine, "minmax": suite_minmax,
           "bergman": suite_bergman}


@main.command()
@click.argument("suite", type=click.Choice(list(_SUITE_ORDER) + ["all"]))
@common_options
@click.pass_context
def verify(ctx, suite, **kw):
    """Run one verification suite (or all of them)."""
    t0 = time.perf_counter()
    cfg = make_config(ctx, "verify", **kw)
    cfg_echo_suite = suite
    names = _SUITE_ORDER if suite == "all" else (suite,)
    records = []
    for name in names:
        t1 = time.perf_counter()
        recs = _SUITES[name](cfg, _suite_rng(cfg.seed, name))
        dt = time.perf_counter() - t1
        for r in recs:
            if not r["runtime"]:
                r["runtime"] = dt / max(len(recs), 1)
        records.extend(recs)
    cfg.command = f"verify:{cfg_echo_suite}"
    warn = sum(1 for r in records if r["status"] == "inconclusive")
    if warn:
        click.echo(f"warning: {warn} inconclusive record(s)")
    finish(cfg, records, t0)


# ---------------------------------------------------------------------------
# report merge
# ---------------------------------------------------------------------------

@main.command(name="report-merge")
@click.argument("paths", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--output", default="", help="merged report path")
@click.option("--format", "fmt", default="json", show_default=True,
              type=click.Choice(["json", "csv"]))
def report_merge(paths, output, fmt):
    """Concatenate JSON reports, keeping per-record provenance."""
    t0 = time.perf_counter()
    reports = []
    for p in paths:
        try:
            with open(p) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"{p}: {exc}")
    for p, r in zip(paths, reports):
        if r.get("schema") != SCHEMA:
            raise click.UsageError(
                f"{p}: schema {r.get('schema')!r} does not match {SCHEMA}")
    records = []
    versions = {r.get("version") for r in reports}
    for p, r in zip(paths, reports):
        for rec in r.get("records", []):
            rec = dict(rec)
            rec["source"] = os.path.basename(p)
            rec.setdefault("runtime", 0.0)
            records.append(rec)
    if len(versions) > 1:
        records.append(record("merge/version-mismatch", float(len(versions)),
                              1.0, "inconclusive",
                              {"versions": sorted(str(v) for v in versions)},
                              "provenance warning"))
    cfg = RunConfig(command="report-merge", seed=0)
    merged = build_report(cfg, records)
    merged["config"] = {"command": "report-merge",
                        "merged_from": [os.path.basename(p) for p in paths]}
    s = merged["summary"]
    click.echo(f'merged {len(paths)} report(s): pass {s["pass"]} '
               f'fail {s["fail"]} inconclusive {s["inconclusive"]}')
    if output:
        write_report(merged, output, fmt, time.perf_counter() - t0)
        click.echo(f"report: {_output_path(output)}")
    if s["fail"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
