"""The measured interpreter of one benchmark run; run.py starts it.

It imports kronmix from the checkout's `src`, builds the workload's inputs,
prints "ready" (the end of set-up) and, unless --setup-only, starts passes
until --seconds have gone by. With --trace 1 untraced and traced passes
alternate, starting and ending with an untraced one. Everything else goes
to a pickle for run.py: pass times, every operation's output, peak RSS,
layer metrics and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import sys
import threading
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--files", required=True, help="JSON object of prepared input paths")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import kronmix
    if not os.path.realpath(kronmix.__file__).startswith(src + os.sep):
        print(f"kronmix imported from {kronmix.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    inputs = workloads.build(args.workload, args.seed, json.loads(args.files))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(len(passes))
        t0 = time.perf_counter()
        try:
            ops = workloads.run_pass(args.workload, inputs)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall_s": time.perf_counter() - t0, "traced": traced, "ops": ops})
        if traced or (tracer is not None and len(passes) < 3):
            continue  # every traced pass sits between two untraced ones
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"passes": passes, "peak_rss_mb": peak_rss_kb / 1024.0,
              "crosscheck": workloads.crosscheck(args.workload, inputs, passes[-1]["ops"]),
              "env": environment()}
    if tracer is not None:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        result["layers"] = tracer.layer_metrics(traced_ids,
                                                [passes[i]["wall_s"] for i in traced_ids],
                                                threading.main_thread().ident)
        tracer.write(os.path.join(os.path.dirname(args.out),
                                  f"spans-{args.workload}-{args.seed}.jsonl"))
    with open(args.out, "wb") as fh:
        pickle.dump(result, fh)
    return 0


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {k: os.environ.get(k) for k in
                        ("KRONMIX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


if __name__ == "__main__":
    sys.exit(main())
