"""Show that every correctness check fails on a perturbed output.

    python3 kronbench/perturb.py --workload dataset-system --seed 1

Runs one untimed pass of the workload in this process and confirms that its
outputs pass. Then, for each check, it perturbs a copy of the output the
check reads and confirms that the check reports it. Exits 1 if the clean
pass fails or any check misses its perturbation.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

import run  # pins the thread pools before numpy work starts
import checks
import workloads

# Each case is (operation, check, perturb); perturb returns the changed output.


def field(key, change):
    """Perturb one field of a dict output; CSV fields stay strings."""
    def perturb(out):
        value = out[key]
        out[key] = repr(change(float(value))) if isinstance(value, str) else change(value)
        return out
    return perturb


def first_entry(key, delta):
    def perturb(out):
        out[key].flat[0] += delta
        return out
    return perturb


def larger_gap(lam2):  # spectral gap 0.1 % too large
    return 1 - (1 - lam2) * 1.001


def coupling_off(est):  # from within 5 standard errors to at least 6 beyond
    est["mean"] += 11 * est["stderr"] + 1.0
    return est


def sweep_cases(checker):
    n = workloads.SWEEP_NS[-1]
    point = f"point n={n}"
    # the sweep reports no start pair, so its check is a range: leave it
    above_range = float(checker.refs[n]["meet_hi"])
    return [
        (point, "n and m", field("m", lambda v: v + 1)),
        (point, "verdict", lambda out: {**out, "converges": "false"}),
        (point, "t_mix exact", lambda out: {**out, "t_mix": str(int(out["t_mix"]) + 1)}),
        (point, "lambda_2 gap", field("lambda2", larger_gap)),
        (point, "lower bound formula", field("lower_bound", lambda v: v * (1 + 1e-6))),
        (point, "upper bound formula", field("upper_bound", lambda v: v * (1 + 1e-6))),
        (point, "coupling within exact meeting-time range",
         lambda out: {**out, "coupling_L": repr(above_range + 6 * float(out["coupling_se"]))}),
        (point, "absorbing H", field("absorbing_H", lambda v: v + 1e-6)),
        (point, "theorem bound formula", field("theorem_bound", lambda v: v * (1 + 1e-6))),
        (point, "limit consensus closed form", field("limit_consensus", lambda v: v + 1e-6)),
        (f"simulate n={n}", "limit consensus vs simulate", first_entry("beliefs", 1e-5)),
    ]


def report_cases(name):
    return [
        (name, "t_mix exact", field("t_mix", lambda v: v + 1)),
        (name, "lambda_2 gap", field("lambda2", larger_gap)),
        (name, "lower bound formula", field("lower", lambda v: v * (1 + 1e-9))),
        (name, "coupling within z standard errors of exact", field("coupling", coupling_off)),
        (name, "coupling bound formula", field("bound", lambda v: v * (1 + 1e-9))),
    ]


def shift_mass(pi):
    pi = pi.copy()
    pi[0] += 1e-6
    pi[-1] -= 1e-6
    return pi


def near_distance_op(checker):
    return f"product distance k={checker.refs['t_prod']}"


def mixing_cases(checker):
    return report_cases("analyze_mixing hypercube") + report_cases("analyze_mixing lollipop") + [
        ("stationary lollipop", "pi proportional to degree", shift_mass),
        ("kron product", "product size and nonzeros", field("nnz", lambda v: v + 1)),
        ("t_mix product", "t_mix exact", lambda t: t + 1),
        ("t_mix product", "AC6 max(t_A, t_C) <= t_prod <= 8 max + 4", lambda t: 10**6),
        ("t_mix hypercube", "t_mix exact", lambda t: t + 1),
        ("t_mix cycle", "t_mix exact", lambda t: t - 1),
        ("coupling hypercube", "coupling within z standard errors of exact", coupling_off),
        ("coupling cycle", "coupling within z standard errors of exact", coupling_off),
        ("theorem_bound", "theorem bound formula", lambda b: b * (1 + 1e-9)),
        ("product distance", "AC7 distance <= epsilon", field("distance", lambda v: 0.3)),
        ("product distance", "distance exact", field("distance", lambda v: v + 1e-6)),
        (near_distance_op(checker), "distance exact at t_mix - 1 and t_mix",
         field("distance", lambda v: v * (1 + 1e-6))),
    ]


def swap_first(key, other=1):
    def perturb(out):
        out[key][0] = out[key][other]
        return out
    return perturb


def dataset_cases(checker):
    return [
        ("load_edgelist", "raw node and edge counts", field("edges", lambda v: v + 1)),
        ("largest_scc", "largest SCC counts", field("nodes", lambda v: v + 1)),
        ("largest_scc", "largest SCC ids", first_entry("ids", 1)),
        ("agent chain", "agent chain size and nonzeros", field("nnz", lambda v: v + 1)),
        ("absorbing time", "absorbing times vs direct solve", first_entry("h", 1e-6)),
        ("absorbing time", "max absorbing time", field("max", lambda v: v + 1e-6)),
        ("assemble", "inputs", first_entry("x0", 1e-9)),
        ("converges oblivious", "verdict", field("oblivious", lambda v: v - 1)),
        ("converges stubborn", "verdict", field("converges", lambda v: False)),
        ("structural_limit", "consensus vs (pi_A x pi_C)' x0", field("consensus", lambda v: v + 1e-6)),
        ("structural_limit", "beliefs at consensus", first_entry("beliefs", 1e-6)),
        ("simulate oblivious", "simulate vs structural_limit", first_entry("beliefs", 1e-6)),
        ("stubborn_limit", "fixed-point residual", first_entry("beliefs", 1e-8)),
        ("simulate stubborn", "simulate vs stubborn_limit", first_entry("beliefs", 1e-6)),
        ("social_power", "order is a permutation", swap_first("order")),
        ("social_power", "weights sorted", swap_first("weights", -1)),
        ("social_power", "weights vs direct stationary solve", first_entry("weights", 1e-8)),
        ("social_power", "cumulative share", field("cumulative", lambda c: c * (1 + 1e-6))),
    ]


def crosscheck_reader(name):
    """simulate n=N is read by point n=N, product distance k=K by product distance."""
    if name.startswith("simulate n="):
        return "point n=" + name.split("=")[1]
    return "product distance"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    workdir = os.path.join(run.ROOT, ".kronbench-out")
    os.makedirs(workdir, exist_ok=True)
    files = workloads.prepare(args.workload, args.seed, workdir)
    inputs = workloads.build(args.workload, args.seed, files)
    ops = workloads.run_pass(args.workload, inputs)
    cross = workloads.crosscheck(args.workload, inputs, ops)
    _, failed, messages = checks.check_run(args.workload, args.seed, [{"ops": ops}], cross)
    print(f"clean pass: {len(ops)} operations, {failed} failed")
    for message in messages:
        print(f"  {message}")

    checker = checks.Checker(args.workload, args.seed)
    cases = {"readme-sweep": sweep_cases, "mixing-report": mixing_cases,
             "dataset-system": dataset_cases}[args.workload](checker)
    missed = 0
    for op_name, check, perturb in cases:
        bad_ops, bad_cross = copy.deepcopy(ops), copy.deepcopy(cross)
        target = next(op for op in bad_ops + bad_cross if op["name"] == op_name)
        target["out"] = perturb(target["out"])
        extra = checks._pass_extra(args.workload, bad_ops, bad_cross)
        # a cross-check output is read by the timed operation it checks
        reader = target if any(op is target for op in bad_ops) else next(
            op for op in bad_ops if op["name"] == crosscheck_reader(op_name))
        caught = check in checker.check(reader, extra)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}  {op_name:28s} {check}")
    print(f"{len(cases) - missed} of {len(cases)} checks fail on their perturbation")
    return 0 if missed == 0 and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
