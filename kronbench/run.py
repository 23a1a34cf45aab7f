"""kronmix benchmark: one workload, one seed, one run.

    python3 kronbench/run.py --workload readme-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
Input files go to `.kronbench-out/`. The workload runs in fresh interpreters
(worker.py): one runs passes for --seconds, and a few before and after it
only time set-up. wall_s is the mean pass time of the run. The outputs of
every pass are then checked (checks.py) and the last line of stdout is one
JSON object: correct, attempted, failed and the metrics, end-to-end with
--trace 0 and per layer with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

# pin every thread pool before numpy loads, here and in the workers
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "KRONMIX_THREADS": "2"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, files: dict, extra: list[str]):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--files", json.dumps(files)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    return proc, setup, line == "ready"


def finish(proc, deadline: float) -> int:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1
    return proc.returncode


def time_setups(args, files: dict, count: int, deadline: float):
    """Set-up times of `count` setup-only interpreters, or None if one fails."""
    setups = []
    for _ in range(count):
        proc, setup, ready = start_worker(args, files, ["--setup-only"])
        if finish(proc, deadline) != 0 or not ready:
            return None
        setups.append(setup)
    return setups


def trace_overhead(passes: list[dict]) -> float:
    """Median over traced passes of its time minus the mean of its two neighbours.

    The worker puts an untraced pass on either side of every traced one, so
    a change of the machine's speed during the run mostly cancels.
    """
    return statistics.median(
        p["wall_s"] - (passes[i - 1]["wall_s"] + passes[i + 1]["wall_s"]) / 2
        for i, p in enumerate(passes) if p["traced"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "kronmix", "__init__.py")):
        print(f"no kronmix source under {ROOT}/src: run from a kronmix checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".kronbench-out")
    os.makedirs(workdir, exist_ok=True)
    files = workloads.prepare(args.workload, args.seed, workdir)

    # set-up samples come half before and half after the measured worker, so
    # they see the same phases of the machine's speed as the passes
    extra_setups = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    setups = time_setups(args, files, extra_setups, deadline)
    out = os.path.join(workdir, f"result-{args.workload}-{args.seed}.pickle")
    proc, setup, ready = start_worker(args, files, ["--seconds", str(args.seconds),
                                                    "--trace", str(args.trace), "--out", out])
    code = finish(proc, deadline)
    if code != 0 or not ready:
        print(f"worker failed (exit {code})", file=sys.stderr)
        return 1
    after = time_setups(args, files, extra_setups, deadline)
    if setups is None or after is None:
        print("set-up run failed", file=sys.stderr)
        return 1
    setups += [setup] + after
    with open(out, "rb") as fh:
        result = pickle.load(fh)
    os.remove(out)

    passes = result["passes"]
    attempted, failed, messages = checks.check_run(args.workload, args.seed, passes,
                                                   result["crosscheck"])
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    print(f"# kronbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# pass wall_s untraced {[round(t, 3) for t in plain]} "
          f"traced {[round(t, 3) for t in traced]}")
    print(f"# operations attempted={attempted} failed={failed}")
    for message in messages[:20]:
        print(f"# FAILED {message}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
        metrics["trace_overhead_s"] = {"value": trace_overhead(passes), "unit": "s"}
        metrics["fail_ratio"] = {"value": failed / max(1, attempted), "unit": "ratio"}
        report_layers(result["layers"], statistics.median(plain), statistics.median(traced),
                      metrics["trace_overhead_s"]["value"])
    else:
        # the mean over the whole run: on a shared machine the speed drifts
        # from pass to pass, and a median of three passes keeps only one
        metrics = {"wall_s": {"value": statistics.fmean(plain), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
        print(f"# wall_s mean of {len(plain)} passes")
        print(f"# setup_s median of {len(setups)} interpreters {[round(t, 3) for t in setups]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_layers(layers: dict, plain: float, traced: float, overhead: float) -> None:
    pass_s = layers["trace.pass_s"][0]
    own = sorted(((v * pass_s, k[:-len(".self_share")]) for k, (v, _) in layers.items()
                  if k.endswith(".self_share")), reverse=True)
    outside = layers["trace.unattributed_share"][0] * pass_s
    print(f"# traced pass {traced:.3f} s, untraced {plain:.3f} s; self time on all "
          f"threads {sum(v for v, _ in own):.3f} s, outside every layer on the main "
          f"thread {outside:.3f} s")
    print(f"# accounting: main-thread self time {pass_s - outside:.3f} s minus untraced "
          f"pass {plain:.3f} s = {pass_s - outside - plain:+.3f} s; "
          f"trace_overhead_s {overhead:+.3f} s")
    for value, name in own[:8]:
        if value > 0:
            print(f"#   {name:45s} self {value:8.3f} s  {100 * value / pass_s:5.1f} % of the pass")
    busy = layers["netio.pool_busy_ratio"][0]
    if busy:
        print(f"# netio.run_experiment self time is the main thread waiting for the pool; "
              f"pool busy ratio {busy:.3f}")


if __name__ == "__main__":
    sys.exit(main())
