"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer function listed in LAYERS by a wrapper
on every binding of it across `kronmix` and its submodules (modules import
each other's functions by name, so patching the defining module alone would
miss calls). `uninstall` puts the originals back, so untraced and traced
passes run in one process.

Each call becomes a span: name, start, end, parent span and thread. Span
stacks are kept per thread because the experiment sweep runs a thread pool.
A span's self time is its duration minus the time of its direct children.
Spans stay in memory; `write` saves them as JSON lines at the end of a run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = {
    "graphs": ("scc_decompose",),
    "stochastic": ("stationary", "ergodicity_check", "equal_weight_matrix"),
    "kron": ("kron",),
    "generators": ("generate", "lazify"),
    "beliefs": ("converges", "oblivious_set", "system_matrix", "simulate"),
    "mixing": ("analyze_mixing", "measure_mixing_time", "second_eigenvalue",
               "estimate_coupling_time", "expected_absorbing_time",
               "product_distance_to_limit"),
    "limits": ("structural_limit", "closed_limit", "limit_matrix",
               "absorbing_probabilities", "stubborn_limit", "social_power"),
    "netio": ("run_experiment", "system_mixing_time", "load_edgelist", "largest_scc",
              "write_csv", "svg_loglog"),
    "cli": ("main",),
}
LAYER_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
# one sweep point; wrapped only to measure how busy the experiment pool is
POOL_TASK = "netio._run_point"
EIGEN_REFERENCE_LIMIT = 2000

# counts and ratios taken from arguments and return values, with their units
COUNT_METRICS = {
    "graphs.scc_decompose.edges": "count",
    "mixing.measure_mixing_time.steps": "count",
    "netio.system_mixing_time.steps": "count",
    "beliefs.simulate.iterations": "count",
    "mixing.estimate_coupling_time.capped_ratio": "ratio",
    "netio.pool_busy_ratio": "ratio",
    "stochastic.stationary.residual_l1": "prob",
    "mixing.second_eigenvalue.gap_rel_err": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, self_s, pass)
        self.counts: collections.Counter = collections.Counter()
        self.eigen_calls: list[tuple] = []  # (matrix, estimate), first traced pass only
        self.pass_index = -1
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []
        self._keep_eigen = True

    # -- wrappers ----------------------------------------------------------

    def install(self, pass_index: int) -> None:
        self.pass_index = pass_index
        modules = [m for name, m in list(sys.modules.items())
                   if name == "kronmix" or name.startswith("kronmix.")]
        for name in LAYER_NAMES + [POOL_TASK]:
            mod_name, fn_name = name.split(".")
            # kronmix/__init__ exports a `kron` function that shadows the
            # submodule attribute, so reach submodules through importlib
            original = getattr(importlib.import_module(f"kronmix.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self._keep_eigen = False  # the same matrices recur in every pass

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]  # span id, time of direct children
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans.append((frame[0], name, start, end, parent,
                                   threading.get_ident(), duration - frame[1], self.pass_index))
            if hook is not None:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self, traced_passes: list[int], pass_walls: list[float],
                      main_thread: int) -> dict:
        """Per-pass averages of every layer metric over the traced passes.

        Layer times are shares of the traced pass: a layer a workload never
        calls reads 0 there, and a share also survives the host's changes
        of speed between runs. `trace.pass_s` gives the scale.
        """
        count = max(1, len(traced_passes))
        pass_s = sum(pass_walls) / count
        wanted = set(traced_passes)
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        main_self = 0.0
        for _, name, start, end, _, thread, own, pass_index in self.spans:
            if pass_index not in wanted:
                continue
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            if thread == main_thread:
                main_self += own
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (calls[name] / count, "count")
            out[f"{name}.total_share"] = (total[name] / count / pass_s, "ratio")
            out[f"{name}.self_share"] = (self_s[name] / count / pass_s, "ratio")
        c = self.counts
        trials = c["mixing.estimate_coupling_time.trials"]
        pool_time = c["netio.run_experiment.workers"] * total["netio.run_experiment"]
        values = {
            "graphs.scc_decompose.edges": c["graphs.scc_decompose.edges"] / count,
            "mixing.measure_mixing_time.steps": c["mixing.measure_mixing_time.steps"] / count,
            "netio.system_mixing_time.steps": c["netio.system_mixing_time.steps"] / count,
            "beliefs.simulate.iterations": c["beliefs.simulate.iterations"] / count,
            "mixing.estimate_coupling_time.capped_ratio":
                c["mixing.estimate_coupling_time.capped"] / trials if trials else 0.0,
            "netio.pool_busy_ratio": total[POOL_TASK] / pool_time if pool_time else 0.0,
            "stochastic.stationary.residual_l1": float(c["stochastic.stationary.residual_l1"]),
            "mixing.second_eigenvalue.gap_rel_err": eigen_gap_error(self.eigen_calls),
        }
        out.update({key: (values[key], unit) for key, unit in COUNT_METRICS.items()})
        out["trace.pass_s"] = (pass_s, "s")
        # pass time outside every wrapped layer on the main thread
        out["trace.unattributed_share"] = (1.0 - main_self / count / pass_s, "ratio")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread, own, pass_index in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread, "self_s": own,
                                     "pass": pass_index}) + "\n")


def eigen_gap_error(calls) -> float:
    """Largest relative error of 1 - |lambda_2| against dense eigenvalues."""
    worst = 0.0
    for matrix, estimate in calls:
        if matrix.n > EIGEN_REFERENCE_LIMIT or matrix.n < 2:
            continue
        moduli = np.sort(np.abs(np.linalg.eigvals(matrix.dense())))
        gap = 1.0 - moduli[-2]
        worst = max(worst, abs((1.0 - estimate) - gap) / gap)
    return worst


# -- counters taken from arguments and return values -------------------------

def _scc_edges(t, args, kwargs, result):
    t.counts["graphs.scc_decompose.edges"] += args[0].edge_count


def _mixing_steps(t, args, kwargs, result):
    t.counts["mixing.measure_mixing_time.steps"] += (
        result[0] if isinstance(result, tuple) else result)


def _system_steps(t, args, kwargs, result):
    t.counts["netio.system_mixing_time.steps"] += result


def _simulate_iterations(t, args, kwargs, result):
    t.counts["beliefs.simulate.iterations"] += result.iterations


def _coupling(t, args, kwargs, result):
    t.counts["mixing.estimate_coupling_time.capped"] += result.capped
    t.counts["mixing.estimate_coupling_time.trials"] += result.trials


def _stationary_residual(t, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    residual = float(np.abs(matrix.csr.T @ result - result).sum())
    key = "stochastic.stationary.residual_l1"
    t.counts[key] = max(t.counts[key], residual)


def _second_eigenvalue(t, args, kwargs, result):
    if t._keep_eigen:
        t.eigen_calls.append((args[0] if args else kwargs["matrix"], float(result)))


def _run_experiment(t, args, kwargs, result):
    netio = importlib.import_module("kronmix.netio")
    config = args[0] if args else kwargs["config"]
    t.counts["netio.run_experiment.workers"] = min(netio._thread_count(),
                                                   len(config.sweep_values()))


_HOOKS = {
    "graphs.scc_decompose": _scc_edges,
    "mixing.measure_mixing_time": _mixing_steps,
    "netio.system_mixing_time": _system_steps,
    "beliefs.simulate": _simulate_iterations,
    "mixing.estimate_coupling_time": _coupling,
    "stochastic.stationary": _stationary_residual,
    "mixing.second_eigenvalue": _second_eigenvalue,
    "netio.run_experiment": _run_experiment,
}
