"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one op at a
time (a closed loop with one client), and checks every op's output after
the timed phase against values computed in `reference` or, for the Siegel
Monte Carlo, against the independent series path.  An op sequence is made
of rounds; round k of a workload is the same for every run with the same
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import reference as ref
from symcone import cli, domains, eja, fischer, spaces, wallach
from symcone.poly import SparsePolynomial


class OpFailed(Exception):
    """The program reported a failure (non-zero exit code) for an op."""


def _round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _cnormal(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _disc_poly(coeffs) -> SparsePolynomial:
    return SparsePolynomial(1, {(k,): c for k, c in enumerate(coeffs)})


def _siegel_poly(nvars: int, coeffs) -> SparsePolynomial:
    """Polynomial of degree <= 2 with the given coefficients, graded lex order."""
    monos = [a for d in range(3) for a in fischer.homogeneous_monomials(nvars, d)]
    return SparsePolynomial(nvars, dict(zip(monos, coeffs)))


class Workload:
    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.report_bytes = 0

    def setup(self):
        """Cold set-up, timed as part of setup_s."""

    def round_ops(self, k: int) -> list:
        """Op specs of round k: tuples whose first item names the op kind."""
        raise NotImplementedError

    def run(self, spec):
        return getattr(self, "op_" + spec[0])(*spec[1:])

    def check(self, spec, result):
        """None when the op's output is right, else a description."""
        return getattr(self, "check_" + spec[0])(spec[1:], result)

    def final_checks(self, done) -> list:
        """Run-level checks after the timed phase; returns problems found."""
        return []


# ---------------------------------------------------------------------------
# gram_scan: positivity queries through `symcone wallach`
# ---------------------------------------------------------------------------

# cli flags, algebra, (rank r, Peirce constant a), kernel family and size
GRAM_FAMILIES = {
    "disc": (["--family", "disc"], eja.herm_complex(1, 1), (1, 0), "herm_complex", 1),
    "herm": (["--family", "herm", "--p", "2"], eja.herm_complex(2, 2), (2, 2),
             "herm_complex", 2),
    "sym": (["--family", "sym", "--rank", "2"], eja.sym_real(2), (2, 1), "sym_real", 2),
    "spin": (["--family", "spin", "--dim", "4"], eja.spin_factor(4), (2, 2), "spin", 4),
}

# (family, lambda, trial budget); inside the set a query runs its whole
# budget, outside it stops at the first witness.  Three blocks of similar
# cost (queries outside the set, disc and herm queries inside it, sym
# queries inside it) put the median and the 90th percentile inside a block;
# spin_factor(4) queries inside the set take one trial each, since the box
# sampler's cost there varies most from draw to draw.  Budgets of 4 and more
# are drawn per op from [budget/2, 3 budget/2]: costs spread evenly within a
# block move a quantile with the host's speed, where alike costs make it
# jump between the host's fast and slow spells
GRAM_MIX = (
    ("disc", -0.5, 40), ("herm", -0.5, 40), ("sym", -0.5, 40), ("sym", 0.25, 60),
    ("spin", -0.5, 40),
    ("disc", 0.5, 100), ("disc", 1.0, 100), ("disc", 2.0, 100),
    ("herm", 1.0, 12), ("herm", 2.5, 12),
    ("sym", 0.5, 6), ("sym", 1.0, 6), ("sym", 2.0, 6), ("sym", 3.0, 6), ("sym", 4.0, 6),
    ("spin", 1.0, 1), ("spin", 2.5, 1),
)

# lambda = 0.5 lies outside {0, 1} u (1, inf) for these two families, but the
# search never finds a witness (its 6-point cluster cap is below the 8 points
# the degree-2 minor's frame needs), so `symcone wallach` exits 1; fixed
# (family, lambda, trials, seed) so the failing share is the same in every run
GRAM_FAULTS = (("herm", 0.5, 8, 3), ("spin", 0.5, 1, 3))


class GramScan(Workload):
    name = "gram_scan"
    trace_rounds = 2

    def setup(self):
        self.path = os.path.join(self.out_dir, "gram.json")

    def round_ops(self, k):
        rng = _round_rng(self.seed, k)
        ops = []
        for fam, lam, trials in GRAM_MIX:
            if trials >= 4:
                trials = int(rng.integers(trials // 2, 3 * trials // 2 + 1))
            ops.append(("gram", fam, lam, trials, int(rng.integers(2**31))))
        return ops + [("gram",) + f for f in GRAM_FAULTS]

    def _cli(self, fam, lam, trials, seed, path):
        args = ["wallach", *GRAM_FAMILIES[fam][0], "--lambda", repr(lam),
                "--trials", str(trials), "--seed", str(seed), "--output", path]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main.main(args=args, prog_name="symcone", standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise OpFailed(f"symcone {' '.join(args)} exited {exc.code}")
        with open(path, "rb") as fh:
            return fh.read()

    def op_gram(self, fam, lam, trials, seed):
        data = self._cli(fam, lam, trials, seed, self.path)
        self.report_bytes += len(data)
        return json.loads(data)

    def check_gram(self, spec, report):
        fam, lam, trials, seed = spec
        r, a = GRAM_FAMILIES[fam][2]
        member = ref.wallach_member(lam, r, a)
        rec = report["records"][0]
        inp = rec["inputs"]
        want = "PSD" if member else "NotPSD"
        sign_ok = (rec["value"] >= -1e-10) if member else (rec["value"] < -1e-8)
        if (inp["verdict"] != want or inp["in_set"] != member or not sign_ok
                or rec["status"] != "pass" or len(report["records"]) != 1
                or report["config"]["seed"] != seed or inp["trials"] != trials
                or report["config"]["lams"] != [lam]):
            return f"gram {spec}: got {inp['verdict']} ratio {rec['value']:.3g}, want {want}"
        return None

    def final_checks(self, done):
        problems = []
        # documented CLI property: same query, byte-identical report
        path = os.path.join(self.out_dir, "gram-repeat.json")
        a = self._cli("sym", 0.25, 60, self.seed, path)
        b = self._cli("sym", 0.25, 60, self.seed, path)
        if a != b:
            problems.append("the same wallach query wrote two different reports")
        # the kernels behind every Gram matrix, against their closed forms
        rng = _round_rng(self.seed, 2**31)
        for fam, (_, alg, _, kfam, size) in GRAM_FAMILIES.items():
            for lam in (-0.5, 0.5, 1.0, 2.5):
                for _ in range(10):
                    vz, vw = (0.3 * (rng.uniform(-1, 1, alg.zdim)
                                     + 1j * rng.uniform(-1, 1, alg.zdim)) for _ in range(2))
                    got = domains.kernel_bounded(lam, domains.bounded_from_vector(alg, vz),
                                                 domains.bounded_from_vector(alg, vw))
                    want = ref.kernel(kfam, size, lam, vz, vw)
                    if abs(got - want) > 1e-10 * abs(want):
                        problems.append(f"kernel_bounded {fam} lam={lam}: {got} vs {want}")
        return problems


# ---------------------------------------------------------------------------
# series_norm: signature-series pairings and seminorms
# ---------------------------------------------------------------------------

# algebra, kernel family and size, top truncation, point radius, lambdas.
# Each pairing draws its truncation per op: 20-60 on the disc, the top
# degree minus 0, 1 or 2 on the rank-2 families.  By count the ops form
# three blocks: 7 Hardy and Dirichlet ops, 8 disc pairings, 7 rank-2
# pairings.  So the median falls among the disc pairings, whose cost grows
# smoothly with the truncation, and follows the host's speed smoothly;
# among ops of equal cost it would jump between the host's fast and slow
# spells.  The 90th percentile falls among the herm and spin pairings.
SERIES_FAMILIES = {
    "disc": (eja.herm_complex(1, 1), "herm_complex", 1, 60, 0.4,
             (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)),
    "sym": (eja.sym_real(2), "sym_real", 2, 8, 0.15, (1.0, 2.0, 3.0)),
    "herm": (eja.herm_complex(2, 2), "herm_complex", 2, 8, 0.1, (1.5, 3.0)),
    "spin": (eja.spin_factor(4), "spin", 4, 7, 0.1, (1.5, 3.0)),
}
DISC = eja.herm_complex(1, 1)
HARDY_TRUNC = 42
HARDY_OPS = 4
DIRICHLET_OPS = 3


class SeriesNorm(Workload):
    name = "series_norm"
    trace_rounds = 4

    def setup(self):
        self.proj = {}
        for fam, (alg, _, _, trunc, _, _) in SERIES_FAMILIES.items():
            self.proj[fam] = proj = fischer.projector(alg)
            if alg.rank > 1:
                for s in wallach.enumerate_signatures(alg.rank, trunc):
                    proj.basis(s)

    def round_ops(self, k):
        rng = _round_rng(self.seed, k)
        ops = []
        for fam, (alg, _, _, trunc, radius, lams) in SERIES_FAMILIES.items():
            d = alg.zdim
            for lam in lams:
                vw, vv = (radius * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
                          for _ in range(2))
                t = (trunc - int(rng.integers(0, 3)) if alg.rank > 1
                     else int(rng.integers(20, trunc + 1)))
                ops.append(("pairing", fam, lam, t, vw, vv))
        for _ in range(HARDY_OPS):
            c = _cnormal(rng, int(rng.integers(20, 41)) + 1)
            ops.append(("hardy", c, _disc_poly(c)))
        for _ in range(DIRICHLET_OPS):
            c = _cnormal(rng, int(rng.integers(8, 15)) + 1)
            ops.append(("dirichlet", c, _disc_poly(c)))
        return ops

    def op_pairing(self, fam, lam, trunc, vw, vv):
        alg = SERIES_FAMILIES[fam][0]
        w = domains.bounded_from_vector(alg, vw)
        wp = domains.bounded_from_vector(alg, vv)
        kw = fischer.kernel_taylor(lam, w, trunc)
        kwp = fischer.kernel_taylor(lam, wp, trunc)
        val, shell = spaces.h_lambda_inner(kw, kwp, lam, alg, trunc, cache=self.proj[fam])
        return val, shell, domains.kernel_bounded(lam, wp, w)

    def check_pairing(self, spec, result):
        fam, lam, _, vw, vv = spec
        _, kfam, size, _, _, _ = SERIES_FAMILIES[fam]
        val, shell, kern = result
        want = ref.kernel(kfam, size, lam, vv, vw)
        if abs(val - want) > 1e-10 * max(1.0, abs(want)) + 10 * shell:
            return f"series <K_w, K_w'> {fam} lam={lam}: {val} vs {want} (shell {shell:.2e})"
        if abs(kern - want) > 1e-10 * abs(want):
            return f"kernel_bounded {fam} lam={lam}: {kern} vs {want}"
        return None

    def op_hardy(self, coeffs, f):
        return spaces.h_lambda_inner(f, f, 1.0, DISC, HARDY_TRUNC, cache=self.proj["disc"])[0]

    def check_hardy(self, spec, val):
        want = float(np.sum(np.abs(spec[0]) ** 2))  # every |z^k| is 1 in H^2
        if abs(val - want) > 1e-10 * want:
            return f"Hardy norm^2 {val} vs {want}"
        return None

    def op_dirichlet(self, coeffs, f):
        return spaces.h_tilde_seminorm(f, 0.0, DISC, len(coeffs) - 1,
                                       cache=self.proj["disc"])

    def check_dirichlet(self, spec, val):
        c = spec[0]
        want = float(np.sum(np.arange(len(c)) * np.abs(c) ** 2))  # sum k |a_k|^2
        if abs(val ** 2 - want) > 1e-9 * want:
            return f"Dirichlet seminorm^2 {val ** 2} vs {want}"
        return None


# ---------------------------------------------------------------------------
# mc_norms: Monte Carlo Bergman and Hardy norms
# ---------------------------------------------------------------------------

BALL = eja.herm_complex(1, 2)
SR2 = eja.sym_real(2)
SPIN4 = eja.spin_factor(4)
Z = SparsePolynomial.variable(1, 0)
HALFPLANE_GRID = (0.02, 0.1, 0.3, 1.0)  # hardy_norm_mc's default cone grid

# samples per op, each drawn per op from [n/2, 3n/2] (see GRAM_MIX for
# why); the op costs form three blocks of five (disc paths, the sym_real(2)
# batch with ball Bergman, spin Siegel with half-plane Hardy), so the median
# and the 90th percentile fall inside a block
N_DISC_BERGMAN = 200_000
N_DISC_HARDY = 100_000
N_SR2_SIEGEL = 40_000
N_BALL_BERGMAN = 1000
N_SPIN_SIEGEL = 400
N_HALFPLANE = 200

SR2_LAM = 4.0
SPIN_LAM = 6.0
SR2_CFG = domains.SiegelSamplerConfig(cauchy_x=True)
SPIN_CFG = domains.SiegelSamplerConfig(cauchy_x=True, sigma_x=0.5,
                                       sigma_logdiag=0.5, sigma_lower=0.5)
N_SIGMA = 6.0
# the run's median ratio MC^2 / series norm^2 is itself an estimate; this
# much relative error is allowed for it in the Siegel proportionality check
SIEGEL_MEDIAN_SLACK = 0.1


class McNorms(Workload):
    name = "mc_norms"
    trace_rounds = 2

    def round_ops(self, k):
        rng = _round_rng(self.seed, k)

        def n(base):
            return int(rng.integers(base // 2, 3 * base // 2 + 1))

        def seed():
            return int(rng.integers(2**31))

        ops = []
        for lam in (2.0, 3.0, 4.0):
            ops.append(("disc_bergman", int(rng.integers(0, 7)), lam, n(N_DISC_BERGMAN), seed()))
        for _ in range(2):
            ops.append(("disc_hardy", int(rng.integers(1, 41)), n(N_DISC_HARDY), seed()))
        for _ in range(2):
            ops.append(("siegel", "sr2", _siegel_poly(3, _cnormal(rng, 10)),
                        n(N_SR2_SIEGEL), seed()))
        for lam in (4.0, 4.5, 5.0):
            alpha = tuple(int(v) for v in rng.integers(0, 3, size=2))
            ops.append(("ball_bergman", alpha, lam, n(N_BALL_BERGMAN), seed()))
        for _ in range(2):
            ops.append(("siegel", "spin", _siegel_poly(4, _cnormal(rng, 15)),
                        n(N_SPIN_SIEGEL), seed()))
        for _ in range(3):
            c = _cnormal(rng, 4)
            ops.append(("halfplane_hardy", c, _disc_poly(c), n(N_HALFPLANE), seed()))
        return ops

    def op_disc_bergman(self, k, lam, n, seed):
        f = spaces.poly_function(DISC, Z ** k)
        return spaces.bergman_norm_mc(f, lam, DISC, n, np.random.default_rng(seed))

    def check_disc_bergman(self, spec, result):
        k, lam, _, _ = spec
        return self._near(result, ref.ball_bergman_sq((k,), lam), f"disc Bergman z^{k} lam={lam}")

    def op_ball_bergman(self, alpha, lam, n, seed):
        f = spaces.poly_function(BALL, SparsePolynomial(2, {alpha: 1.0}))
        return spaces.bergman_norm_mc(f, lam, BALL, n, np.random.default_rng(seed))

    def check_ball_bergman(self, spec, result):
        alpha, lam, _, _ = spec
        return self._near(result, ref.ball_bergman_sq(alpha, lam), f"ball Bergman z^{alpha} lam={lam}")

    @staticmethod
    def _near(result, want, what):
        norm, se = result
        # the estimate of norm^2 has standard error 2 norm se
        if abs(norm ** 2 - want) > N_SIGMA * 2 * norm * se + 1e-12 * want:
            return f"{what}: {norm ** 2} vs {want} (se {2 * norm * se:.2e})"
        return None

    def op_disc_hardy(self, k, n, seed):
        f = spaces.poly_function(DISC, Z ** k)
        return spaces.hardy_norm_mc(f, DISC, n, np.random.default_rng(seed))

    def check_disc_hardy(self, spec, norm):
        if abs(norm - 1.0) > 1e-3:  # |z^k| = 1 on the circle; the grid stops at r = 1 - 1e-5
            return f"disc Hardy norm of z^{spec[0]}: {norm}"
        return None

    def op_siegel(self, fam, p, n, seed):
        alg, lam, cfg = (SR2, SR2_LAM, SR2_CFG) if fam == "sr2" else (SPIN4, SPIN_LAM, SPIN_CFG)
        f = spaces.transport_to_siegel(spaces.poly_function(alg, p), lam)
        return spaces.bergman_norm_mc(f, lam, alg, n, np.random.default_rng(seed),
                                      realization="siegel", config=cfg)

    def check_siegel(self, spec, result):
        return None  # proportionality needs every op of the run: final_checks

    def op_halfplane_hardy(self, coeffs, p, n, seed):
        f = spaces.transport_to_siegel(spaces.poly_function(DISC, p), 1.0)
        return spaces.hardy_norm_mc(f, DISC, n, np.random.default_rng(seed),
                                    realization="siegel", cone_grid=HALFPLANE_GRID)

    def check_halfplane_hardy(self, spec, norm):
        want, sigma = ref.halfplane_hardy_sq(spec[0], HALFPLANE_GRID)
        if abs(norm ** 2 - want) > N_SIGMA * sigma / math.sqrt(spec[2]) + 1e-9 * want:
            return f"half-plane Hardy norm^2 {norm ** 2} vs quadrature {want}"
        return None

    def final_checks(self, done):
        """Siegel MC norms against series norms: the ratio MC^2 / series^2 is
        one constant per family.  Each op's ratio lies within N_SIGMA of its
        own standard errors (plus SIEGEL_MEDIAN_SLACK) of the run's median.
        The spin importance weights are heavy-tailed, so a fixed factor would
        not do: an op that drew a large weight also reports a large error."""
        problems = []
        ratios = {"sr2": [], "spin": []}
        for spec, (norm, se) in ((s, r) for s, r in done if s[0] == "siegel"):
            fam = spec[1]
            alg, lam = (SR2, SR2_LAM) if fam == "sr2" else (SPIN4, SPIN_LAM)
            series = spaces.h_lambda_norm_sq(spec[2], lam, alg, 2)[0]
            ratios[fam].append((norm ** 2 / series, 2 * se / norm))
        for fam, rs in ratios.items():
            if not rs:
                continue
            mid = float(np.median([r for r, _ in rs]))
            bad = [r for r, rel in rs
                   if abs(r / mid - 1) > N_SIGMA * rel + SIEGEL_MEDIAN_SLACK]
            if bad:
                problems.append(f"Siegel {fam}: ratios {bad} too far from the median {mid:.4g}")
        return problems


WORKLOADS = {w.name: w for w in (GramScan, SeriesNorm, McNorms)}
