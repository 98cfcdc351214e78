"""symcone benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload {gram_scan,series_norm,mc_norms} \
        --seed N --seconds S --trace {0,1}

Run from a checkout; the package is imported from its `src`.  With
--trace 0 the run sets up, runs whole rounds of ops until S seconds have
passed, checks every op's output and prints the end-to-end metrics.  With
--trace 1 it wraps the package's functions, runs a fixed number of rounds
(so counts repeat exactly), writes the spans to perfbench/out and prints
the per-layer metrics.  The last stdout line is one JSON object.
"""

import os
import sys
import time

# interpreter start-up before this line: the CPU time the process has used
# so far, read on a nanosecond clock; start-up computes and barely waits
_STARTUP = time.process_time()
_T_TOP = time.perf_counter()

# single-threaded: BLAS reads these when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "symcone", "__init__.py")):
    sys.exit(f"no package source at {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        # a fixed op plan, made before the wrappers go in, so that counts
        # repeat exactly and cover only the program's work
        plan = [wl.round_ops(k) for k in range(wl.trace_rounds)]
        tracer.install()
        with tracer.span("bench.setup"):
            wl.setup()
    else:
        wl.setup()

    done, latencies, failures = [], [], []
    attempted = 0
    t_first = time.perf_counter()
    setup_s = _STARTUP + (t_first - _T_TOP)
    k = 0
    while True:
        for spec in plan[k] if tracer else wl.round_ops(k):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer:
                    tracer.op_id = attempted
                    with tracer.span("bench.op"):
                        result = wl.run(spec)
                else:
                    result = wl.run(spec)
            except Exception as exc:  # program faults and exits; the loop keeps going
                failures.append(f"{spec[:2]}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            done.append((spec, result))
        k += 1
        if (k == len(plan)) if tracer else (time.perf_counter() - t_first >= args.seconds):
            break
    timed = time.perf_counter() - t_first
    if tracer:
        tracer.uninstall()

    problems = [msg for spec, result in done
                if (msg := wl.check(spec, result)) is not None]
    problems += wl.final_checks(done)
    for msg in failures[:5] + problems[:20]:
        print(msg, file=sys.stderr)

    lat = np.array(latencies) if latencies else np.zeros(1)
    ops_per_s = len(done) / timed
    print(f"{args.workload}: {k} rounds, {attempted} ops, {len(failures)} failed, "
          f"{ops_per_s:.3f} op/s{' (traced)' if tracer else ''}", file=sys.stderr)
    if tracer:
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.npz"))
        values = tracer.layer_metrics()
        values["cli.report_bytes"] = wl.report_bytes
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s,
                  "op_p50_s": float(np.percentile(lat, 50)),
                  "op_p90_s": float(np.percentile(lat, 90)),
                  "peak_rss_mib": rss_mib}
    # names and units come from BENCHMARK.json, so every listed metric is printed
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
