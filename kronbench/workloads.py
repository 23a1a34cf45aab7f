"""The three workloads: their inputs and one pass over their operation list.

`prepare` runs in the harness and writes input files (not timed). `build`
runs in the measured interpreter after `import kronmix` and makes the
in-memory inputs; it ends the set-up interval. `run_pass` is one timed pass.
Every operation of a pass is recorded as {"name", "error", "out"} so the
harness can check it; an exception fails only that operation and the ones
that need its result.

Calls go through module attributes (`mixing.analyze_mixing`, not a name
imported once) so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import os

import numpy as np

EPSILON = 0.25
ALPHA = 0.5

# readme-sweep: the README experiment config
SWEEP_NS = list(range(11, 102, 10))
SWEEP_M = 10
SWEEP_TRIALS = 200

# mixing-report
HYPERCUBE_N, LOLLIPOP_N = 1024, 100
REPORT_TRIALS = 300
FACTOR_HYPERCUBE_N, FACTOR_CYCLE_N = 32, 33
FACTOR_TRIALS = 150

# dataset-system
RING_M, RING_K = 5, 2
STUBBORN_SHARE, STUBBORN_LAMBDA = 0.1, 0.5

WORKLOADS = ("readme-sweep", "mixing-report", "dataset-system")
MIXING_OPS = ("analyze_mixing hypercube", "analyze_mixing lollipop", "stationary lollipop",
              "kron product", "t_mix product", "t_mix hypercube", "t_mix cycle",
              "coupling hypercube", "coupling cycle", "theorem_bound", "product distance")
DATASET_OPS = ("load_edgelist", "largest_scc", "agent chain", "absorbing time", "assemble",
               "converges oblivious", "structural_limit", "simulate oblivious",
               "converges stubborn", "stubborn_limit", "simulate stubborn", "social_power")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def sweep_x0(seed: int, index: int, n: int) -> np.ndarray:
    """x0 of sweep point `index`: the first draw of the point's Philox stream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
    return rng.random((n, SWEEP_M))


def dataset_inputs(seed: int, n: int):
    """(x0, lambda) of the dataset systems for an agent chain of n states."""
    rng = rng_for(seed, 7)
    x0 = rng.random((n, RING_M))
    lam = np.ones(n)
    lam[rng.choice(n, size=max(1, int(STUBBORN_SHARE * n)), replace=False)] = STUBBORN_LAMBDA
    return x0, lam


# -- harness side -------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files; returns what `build` needs."""
    if workload == "readme-sweep":
        path = os.path.join(workdir, f"sweep-{seed}.cfg")
        outdir = os.path.join(workdir, f"sweep-{seed}-out")
        lines = ["agent.family = cycle", "constraint.family = path",
                 "constraint.directed = true", f"constraint.n = {SWEEP_M}",
                 "sweep = n", f"sweep.start = {SWEEP_NS[0]}",
                 f"sweep.stop = {SWEEP_NS[-1]}", f"sweep.stride = {SWEEP_NS[1] - SWEEP_NS[0]}",
                 f"epsilon = {EPSILON}", f"alpha = {ALPHA}", f"trials = {SWEEP_TRIALS}",
                 f"seed = {seed}", f"outdir = {outdir}"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return {"config": path, "outdir": outdir}
    if workload == "dataset-system":
        from edgelist import generate, write
        path = os.path.join(workdir, f"edges-{seed}.txt")
        src, dst = generate(seed)
        write(path, src, dst, seed)
        return {"edgelist": path}
    if workload == "mixing-report":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# -- measured interpreter side ------------------------------------------------

class Pass:
    """Records the operations of one pass."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.ops: list[dict] = []

    def run(self, name: str, fn, summarize=lambda value: value):
        """Call fn; record its summarized output or its error; return the value."""
        try:
            value = fn()
        except Exception as exc:  # any raise fails the operation, not the run
            self.ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}", "out": None})
            return None
        self.ops.append({"name": name, "error": None, "out": summarize(value)})
        return value

    def done(self) -> list[dict]:
        """The recorded operations plus every one not reached, as failed."""
        reached = {op["name"] for op in self.ops}
        return self.ops + [{"name": name, "error": "skipped: an input failed", "out": None}
                           for name in self.names if name not in reached]


def _modules():
    return {name: importlib.import_module(f"kronmix.{name}")
            for name in ("beliefs", "cli", "generators", "kron", "limits", "mixing",
                         "netio", "stochastic")}


def _lazy_chain(mods, family: str, n: int, **kw):
    g = mods["generators"]
    graph = g.generate(g.TopologySpec(family, n, **kw))
    return mods["stochastic"].equal_weight_matrix(g.lazify(graph, ALPHA))


def build(workload: str, seed: int, files: dict) -> dict:
    mods = _modules()
    inputs = {"mods": mods, "seed": seed, **files}
    if workload == "readme-sweep":
        inputs["argv"] = ["experiment", "--config", files["config"]]
    elif workload == "mixing-report":
        inputs["hypercube"] = _lazy_chain(mods, "hypercube", HYPERCUBE_N)
        inputs["lollipop"] = _lazy_chain(mods, "lollipop", LOLLIPOP_N)
        inputs["factor_a"] = _lazy_chain(mods, "hypercube", FACTOR_HYPERCUBE_N)
        inputs["factor_c"] = _lazy_chain(mods, "cycle", FACTOR_CYCLE_N)
    elif workload == "dataset-system":
        inputs["ring"] = _lazy_chain(mods, "eulerian-ring", RING_M, k=RING_K, directed=True)
    return inputs


def run_pass(workload: str, inputs: dict) -> list[dict]:
    return {"readme-sweep": _sweep_pass, "mixing-report": _mixing_pass,
            "dataset-system": _dataset_pass}[workload](inputs)


def _sweep_pass(inp) -> list[dict]:
    cli = inp["mods"]["cli"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inp["argv"])
    names = [f"point n={n}" for n in SWEEP_NS]
    if code != 0:
        return [{"name": name, "error": f"kronmix experiment exited {code}", "out": None}
                for name in names]
    with open(os.path.join(inp["outdir"], "experiment.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_value = {row["sweep_value"]: row for row in rows}
    ops = []
    for n, name in zip(SWEEP_NS, names):
        row = by_value.get(str(n))
        error = "row missing" if row is None else (row["error"] or None)
        ops.append({"name": name, "error": error, "out": row})
    return ops


def _coupling(est):
    return {"mean": est.mean, "stderr": est.stderr, "trials": est.trials,
            "capped": est.capped, "start_pair": tuple(int(v) for v in est.start_pair)}


def _report(rep):
    return {"t_mix": rep.t_mix, "lambda2": rep.lambda2_abs, "lower": rep.lower_bound,
            "upper": rep.upper_bound, "coupling": _coupling(rep.coupling),
            "bound": rep.theorem_bound}


def _mixing_pass(inp) -> list[dict]:
    mixing, kron = inp["mods"]["mixing"], inp["mods"]["kron"]
    stochastic = inp["mods"]["stochastic"]
    seed = inp["seed"]
    p = Pass(MIXING_OPS)
    for stream, key in ((1, "hypercube"), (2, "lollipop")):
        p.run(f"analyze_mixing {key}",
              lambda: mixing.analyze_mixing(inp[key], EPSILON, trials=REPORT_TRIALS,
                                            rng=rng_for(seed, stream)), _report)
    p.run("stationary lollipop", lambda: stochastic.stationary(inp["lollipop"]))
    a, c = inp["factor_a"], inp["factor_c"]
    prod = p.run("kron product", lambda: kron.kron(a, c),
                 lambda m: {"n": m.n, "nnz": m.nnz})
    if prod is not None:
        p.run("t_mix product", lambda: mixing.measure_mixing_time(prod, EPSILON))
    p.run("t_mix hypercube", lambda: mixing.measure_mixing_time(a, EPSILON))
    p.run("t_mix cycle", lambda: mixing.measure_mixing_time(c, EPSILON))
    la = p.run("coupling hypercube", lambda: mixing.estimate_coupling_time(
        a, trials=FACTOR_TRIALS, rng=rng_for(seed, 3)), _coupling)
    lc = p.run("coupling cycle", lambda: mixing.estimate_coupling_time(
        c, trials=FACTOR_TRIALS, rng=rng_for(seed, 4)), _coupling)
    if la is None or lc is None:
        return p.done()
    bound = p.run("theorem_bound",
                  lambda: mixing.theorem_bound(la.mean, lc.mean, 0.0, 0.0, EPSILON))
    if bound is not None:
        k = math.ceil(bound)
        p.run("product distance", lambda: mixing.product_distance_to_limit(a, c, k),
              lambda d: {"k": k, "distance": d})
    return p.done()


def _belief_summary(result):
    return {"beliefs": result.state.x[: result.state.x.size // 2].copy(),
            "iterations": result.iterations, "converged": result.converged}


def _verdict(v):
    return {"converges": v.converges, "witnesses": len(v.witnesses),
            "oblivious": len(v.oblivious_agents)}


def _dataset_pass(inp) -> list[dict]:
    m = inp["mods"]
    netio, generators, stochastic = m["netio"], m["generators"], m["stochastic"]
    beliefs, limits, mixing = m["beliefs"], m["limits"], m["mixing"]
    p = Pass(DATASET_OPS)
    raw = p.run("load_edgelist", lambda: netio.load_edgelist(inp["edgelist"]),
                lambda g: {"nodes": g.node_count, "edges": g.edge_count})
    if raw is None:
        return p.done()
    sub = p.run("largest_scc", lambda: netio.largest_scc(raw),
                lambda g: {"nodes": g.node_count, "edges": g.edge_count,
                           "ids": np.asarray(g.meta["id_map"]).copy()})
    agents = None if sub is None else p.run(
        "agent chain", lambda: stochastic.equal_weight_matrix(generators.lazify(sub, ALPHA)),
        lambda a: {"n": a.n, "nnz": a.nnz})
    p.run("absorbing time",
          lambda: mixing.expected_absorbing_time(
              stochastic.equal_weight_matrix(generators.lazify(raw, ALPHA))),
          lambda t: {"h": t.node_expectation.copy(), "max": t.max_expectation})
    if agents is None:
        return p.done()
    x0, lam = dataset_inputs(inp["seed"], agents.n)
    systems = p.run("assemble", lambda: (
        beliefs.assemble(agents, inp["ring"], np.ones(agents.n), x0),
        beliefs.assemble(agents, inp["ring"], lam, x0)),
        lambda s: {"x0": x0, "lam": lam})
    if systems is not None:
        oblivious, stubborn = systems
        p.run("converges oblivious", lambda: beliefs.converges(oblivious), _verdict)
        p.run("structural_limit", lambda: limits.structural_limit(oblivious),
              lambda r: {"beliefs": r.beliefs.copy(), "consensus": r.consensus})
        p.run("simulate oblivious", lambda: beliefs.simulate(oblivious), _belief_summary)
        p.run("converges stubborn", lambda: beliefs.converges(stubborn), _verdict)
        p.run("stubborn_limit", lambda: limits.stubborn_limit(stubborn),
              lambda x: {"beliefs": x.copy()})
        p.run("simulate stubborn", lambda: beliefs.simulate(stubborn), _belief_summary)
    p.run("social_power", lambda: limits.social_power(agents),
          lambda s: {"order": s.order.copy(), "weights": s.weights.copy(),
                     "cumulative": s.cumulative.copy()})
    return p.done()


def crosscheck(workload: str, inputs: dict, ops: list[dict]) -> list[dict]:
    """Untimed calls after the passes whose outputs the checks compare against.

    `ops` is the last pass. readme-sweep simulates every sweep system;
    mixing-report evaluates the product distance where it is not negligible.
    """
    if workload == "readme-sweep":
        return _sweep_crosscheck(inputs)
    if workload == "mixing-report":
        return _distance_crosscheck(inputs, ops)
    return []


def _distance_crosscheck(inputs: dict, ops: list[dict]) -> list[dict]:
    """product_distance_to_limit at t_mix - 1 and t_mix of the pass's product.

    At k = ceil(theorem_bound) the distance is far below any tolerance, so
    only these two steps show whether it is computed at all.
    """
    t_prod = next((op["out"] for op in ops if op["name"] == "t_mix product"
                   and op["error"] is None), None)
    if not t_prod:
        return []
    mixing = inputs["mods"]["mixing"]
    ks = (t_prod - 1, t_prod)
    p = Pass(tuple(f"product distance k={k}" for k in ks))
    for k in ks:
        p.run(f"product distance k={k}",
              lambda k=k: mixing.product_distance_to_limit(inputs["factor_a"],
                                                           inputs["factor_c"], k),
              lambda d, k=k: {"k": k, "distance": d})
    return p.done()


def _sweep_crosscheck(inputs: dict) -> list[dict]:
    """Simulate every sweep system.

    Rebuilds each point's system from the same seeded stream the sweep uses,
    so the harness can compare `limit_consensus` with the simulated limit.
    """
    m = inputs["mods"]
    constraint = _lazy_chain(m, "path", SWEEP_M, directed=True)
    p = Pass(tuple(f"simulate n={n}" for n in SWEEP_NS))
    for index, n in enumerate(SWEEP_NS):
        def limit(n=n, index=index):
            system = m["beliefs"].assemble(_lazy_chain(m, "cycle", n), constraint,
                                           np.ones(n), sweep_x0(inputs["seed"], index, n))
            return m["beliefs"].simulate(system)
        p.run(f"simulate n={n}", limit, _belief_summary)
    return p.done()
