import argparse
import csv
import os
import re
import threading

import numpy as np
import pytest

from kronmix import limits, mixing, netio, stochastic
from kronmix.cli import build_parser, main
from kronmix.errors import EmptyGraph, ParseError, SpecError
from kronmix.generators import TopologySpec
from kronmix.graphs import scc_decompose
from kronmix.netio import (CSV_HEADER, ExperimentConfig, config_from_mapping,
                           dataset_instructions, largest_scc, load_edgelist,
                           read_config, run_experiment, svg_loglog,
                           verify_checksum, write_csv)
from kronmix.stochastic import equal_weight_matrix
from oracles import edge_dict
from test_limits import count_limit_work

DATA_DIR = os.environ.get("KRONMIX_DATA", "data")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadEdgelist:
    def test_two_cycle(self, tmp_path):
        g = load_edgelist(write(tmp_path, "g.txt", "0 1\n1 0\n"))
        assert g.node_count == 2
        assert g.edge_count == 2
        assert scc_decompose(g).count == 1

    def test_comments_only_empty(self, tmp_path):
        path = write(tmp_path, "c.txt", "# one\n# two\n\n")
        with pytest.raises(EmptyGraph):
            load_edgelist(path)

    def test_malformed_line_number(self, tmp_path):
        path = write(tmp_path, "bad.txt", "0 1\n1 2 3\n")
        with pytest.raises(ParseError) as exc:
            load_edgelist(path)
        assert exc.value.line_number == 2

    def test_non_integer(self, tmp_path):
        path = write(tmp_path, "bad.txt", "# header\n0 x\n")
        with pytest.raises(ParseError) as exc:
            load_edgelist(path)
        assert exc.value.line_number == 2

    @pytest.mark.filterwarnings("error")
    def test_comments_only_raises_no_numpy_warning(self, tmp_path):
        with pytest.raises(EmptyGraph):
            load_edgelist(write(tmp_path, "c.txt", "# one\n  \n# two 3 4\n"))

    @pytest.mark.parametrize("text, line", [
        ("# header\n0 1 2\n3 4 5\n", 2),            # every row has three fields
        ("0 1\n\n# c\n5 99999999999999999999\n", 4),  # past int64
        ("# a\n# b\n7\n", 3),
        ("0 1\n1 2.0\n", 2),
    ])
    def test_bad_line_numbered_past_comments(self, tmp_path, text, line):
        with pytest.raises(ParseError) as exc:
            load_edgelist(write(tmp_path, "bad.txt", text))
        assert exc.value.line_number == line

    def test_matches_line_by_line_parse(self, tmp_path):
        rng = np.random.default_rng(6)
        ids = rng.choice(10_000, size=300, replace=False)
        lines, want = ["# FromNodeId\tToNodeId"], set()
        for u, v in ids[rng.integers(300, size=(2000, 2))]:
            lines.append(f"{u}\t{v}" if rng.random() < 0.9 else f"  {u} {v}  # note")
            want.add((int(u), int(v)))
            if rng.random() < 0.05:
                lines.append("# interleaved comment")
        g = load_edgelist(write(tmp_path, "g.txt", "\n".join(lines) + "\n"))
        id_map = g.meta["id_map"]
        assert id_map.tolist() == sorted({u for e in want for u in e})
        assert {(int(id_map[s]), int(id_map[t])) for s, t in edge_dict(g)} == want

    def test_id_remap_and_map_kept(self, tmp_path):
        g = load_edgelist(write(tmp_path, "g.txt", "10 30\n30 570\n"))
        assert g.node_count == 3
        assert g.meta["id_map"].tolist() == [10, 30, 570]

    def test_duplicates_merge(self, tmp_path):
        g = load_edgelist(write(tmp_path, "g.txt", "0 1\n0 1\n1 0\n"))
        assert g.edge_count == 2

    def test_undirected_symmetrizes(self, tmp_path):
        g = load_edgelist(write(tmp_path, "g.txt", "0 1\n"), directed=False)
        assert set(edge_dict(g)) == {(0, 1), (1, 0)}


class TestLargestScc:
    def test_strongly_connected_identity(self, tmp_path):
        g = load_edgelist(write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n"))
        sub = largest_scc(g)
        assert sub.node_count == 3
        assert sub.edge_count == 3

    def test_picks_largest(self, tmp_path):
        text = "0 1\n1 0\n2 3\n3 4\n4 2\n1 2\n"
        sub = largest_scc(load_edgelist(write(tmp_path, "g.txt", text)))
        assert sub.node_count == 3
        assert sub.meta["id_map"].tolist() == [2, 3, 4]

    def test_tie_breaks_on_smallest_id(self, tmp_path):
        text = "5 6\n6 5\n1 2\n2 1\n"
        sub = largest_scc(load_edgelist(write(tmp_path, "g.txt", text)))
        assert sub.meta["id_map"].tolist() == [1, 2]


class TestConfig:
    def test_read_config(self, tmp_path):
        path = write(tmp_path, "cfg.txt",
                     "# sweep over agents\nagent.family = cycle\nagent.n= 11\n"
                     "constraint.family =path\nconstraint.directed = true\n"
                     "sweep = n\nsweep.start = 5\nsweep.stop = 9\nsweep.stride = 2\n"
                     "epsilon = 0.25\n")
        mapping = read_config(path)
        assert mapping["agent.family"] == "cycle"
        cfg = config_from_mapping(mapping)
        assert cfg.sweep_values() == [5, 7, 9]
        assert cfg.constraint.directed is True

    def test_bad_line(self, tmp_path):
        with pytest.raises(ParseError):
            read_config(write(tmp_path, "cfg.txt", "agent.family cycle\n"))

    def test_readme_and_benchmark_keys_parse(self, tmp_path):
        # the README config plus the `alpha` and `trials` lines the benchmark's
        # sweep config adds
        lines = ["agent.family = cycle", "constraint.family = path",
                 "constraint.directed = true", "constraint.n = 10", "sweep = n",
                 "sweep.start = 11", "sweep.stop = 101", "sweep.stride = 10",
                 "epsilon = 0.25", "alpha = 0.5", "trials = 200", "seed = 1", "outdir = out"]
        mapping = read_config(write(tmp_path, "cfg.txt", "\n".join(lines) + "\n"))
        assert list(mapping) == [line.split(" = ")[0] for line in lines]
        assert config_from_mapping(mapping) == ExperimentConfig(
            agent=TopologySpec("cycle"), constraint=TopologySpec("path", 10, directed=True),
            sweep="n", sweep_start=11, sweep_stop=101, sweep_stride=10, epsilon=0.25,
            alpha=0.5, trials=200, seed=1, outdir="out")

    @pytest.mark.parametrize("key", ["sweep.strid", "agent.undirected_file", "config",
                                     "lambda_policy", "graph.family", "constraint.seeds"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = write(tmp_path, "cfg.txt", f"agent.family = cycle\n{key} = 50\n")
        with pytest.raises(SpecError, match=f"line 2: unknown key '{re.escape(key)}'"):
            read_config(path)

    @pytest.mark.parametrize("value", ["on", "off", "y", "2", ""])
    def test_non_boolean_directed_rejected(self, tmp_path, value):
        path = write(tmp_path, "cfg.txt", f"agent.family = cycle\nconstraint.directed = {value}\n")
        with pytest.raises(SpecError, match="line 2: constraint.directed must be"):
            read_config(path)

    @pytest.mark.parametrize("value, directed", [("true", True), ("False", False),
                                                 ("yes", True), ("NO", False),
                                                 ("1", True), ("0", False)])
    def test_directed_booleans(self, tmp_path, value, directed):
        mapping = read_config(write(tmp_path, "cfg.txt", "agent.family = cycle\n"
                                    f"constraint.family = path\nconstraint.directed = {value}\n"))
        assert config_from_mapping(mapping).constraint.directed is directed

    def test_cli_rejects_a_typo_with_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "cfg.txt", "agent.family = cycle\nconstraint.family = path\n"
                     f"sweep.strid = 50\noutdir = {tmp_path / 'out'}\n")
        assert main(["experiment", "--config", path]) == 2
        assert "line 3: unknown key 'sweep.strid'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_validation(self):
        with pytest.raises(SpecError):
            config_from_mapping({"agent.family": "cycle", "constraint.family": "path",
                                 "sweep": "x"})
        with pytest.raises(SpecError):
            config_from_mapping({"constraint.family": "path"})
        with pytest.raises(SpecError):
            config_from_mapping({"agent.family": "cycle", "constraint.family": "path",
                                 "epsilon": "1.5"})


# an Erdős–Rényi graph whose node 0 has no edge, so at alpha 0 it has no chain
DANGLING_ER = TopologySpec("erdos-renyi", 6, p=0.05, seed=1)


def small_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        agent=TopologySpec("cycle", 5),
        constraint=TopologySpec("path", 3, directed=True),
        sweep="n", sweep_start=5, sweep_stop=9, sweep_stride=2,
        epsilon=0.25, seed=4, trials=60, alpha=0.0,
        outdir=str(tmp_path / "out"))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# experiment.csv of small_config as computed on the materialised system graph;
# the directed path makes most pairs transient, so t_mix and limit_consensus
# both go through the transient solve. coupling_L is the worst meeting time
# of two simple walks on the odd n-cycle, (n^2 - 1) / 2.
SMALL_CONFIG_CSV = (
    CSV_HEADER + "\n"
    "5,5,3,true,10,0.8090169944,1.468109288,21.43826645,12,6.000143885e-09,2,"
    "621.0598738,0.662189153,\n"
    "7,7,3,true,20,0.9009688679,3.153069228,44.74165553,24,1.200057554e-08,2,"
    "1153.396908,0.4496315459,\n"
    "9,9,3,true,33,0.9396926208,5.400212206,77.63778311,40,2.000159872e-08,2,"
    "1863.179621,0.7296574664,\n")


# t_mix of the README sweep (lazy cycle n = 11..101 x lazy directed path m = 10,
# alpha 0.5, epsilon 0.25); the initial beliefs, so the seed, do not enter it
README_SWEEP_T_MIX = [40, 145, 315, 551, 853, 1221, 1653, 2152, 2716, 3346]


def test_readme_sweep_t_mix_pinned(monkeypatch):
    def no_update(*args):
        raise AssertionError("an oblivious system stepped the 2nm-wide update")

    monkeypatch.setattr(mixing, "update", no_update)
    path = equal_weight_matrix(
        netio.resolve_graph(TopologySpec("path", 10, directed=True), 0.5))
    got = []
    for n in range(11, 102, 10):
        cycle = netio.resolve_graph(TopologySpec("cycle", n), 0.5)
        system = netio.build_system(equal_weight_matrix(cycle), path, "oblivious", None,
                                    x0_constant=0.5)
        got.append(netio.system_mixing_time(system, 0.25))
    assert got == README_SWEEP_T_MIX


def test_readme_sweep_screens_the_kronecker_gap(monkeypatch):
    # the factor-marginal bound settles every step above epsilon but about
    # one a point, so the nm-row Kronecker gap runs at most twice a point
    calls, real = [0], mixing._column_gap

    def counting(left, target, right=None):
        calls[0] += right is not None
        return real(left, target, right)

    monkeypatch.setattr(mixing, "_column_gap", counting)
    path = equal_weight_matrix(
        netio.resolve_graph(TopologySpec("path", 10, directed=True), 0.5))
    for n in range(11, 102, 10):
        cycle = netio.resolve_graph(TopologySpec("cycle", n), 0.5)
        system = netio.build_system(equal_weight_matrix(cycle), path, "oblivious", None,
                                    x0_constant=0.5)
        before = calls[0]
        netio.system_mixing_time(system, 0.25)
        assert 1 <= calls[0] - before <= 2


def test_readme_sweep_jumps_past_most_steps(monkeypatch):
    # on these small chains the jump's squarings pay for themselves before
    # the constraint block is within 2^-20 of its limit, so the scan jumps
    # at the first re-read of that distance (each time k grows by an eighth)
    # from the step it gets there, and lands on t - 1 or later: at most that
    # step, an eighth more and 2 sparse steps a point, where it used to take
    # t (12,992 for the ten points)
    steps, real = [], mixing.sp.block_diag

    class Counted:
        def __init__(self, op):
            self.op = op

        def __matmul__(self, block):
            steps[-1] += 1
            return self.op @ block

    monkeypatch.setattr(mixing.sp, "block_diag", lambda *args, **kw: Counted(real(*args, **kw)))
    path = equal_weight_matrix(
        netio.resolve_graph(TopologySpec("path", 10, directed=True), 0.5))
    # the tracked columns that bound the gap start at the path's sink, whose
    # column of C^k tends to all ones
    column, ready = np.eye(10)[:, -1], 0
    while 10 * np.abs(column - 1.0).sum() > mixing._JUMP_DELTA:
        column, ready = path.dense() @ column, ready + 1
    for n, t in zip(range(11, 102, 10), README_SWEEP_T_MIX):
        cycle = equal_weight_matrix(netio.resolve_graph(TopologySpec("cycle", n), 0.5))
        system = netio.build_system(cycle, path, "oblivious", None, x0_constant=0.5)
        steps.append(0)
        assert netio.system_mixing_time(system, 0.25) == t
        assert steps[-1] <= min(t, ready + ready // 8 + 2)
    assert sum(steps) < 600


def lazy_cycle_worst_meeting_time(n):
    """Worst-pair meeting time of two lazy (alpha 1/2) walks on the n-cycle.

    The difference of the walks moves by -2..2 with probabilities 1/16, 1/4,
    3/8, 1/4, 1/16, and the walks meet when it is 0.
    """
    step = np.zeros((n, n))
    for d in range(n):
        for delta, prob in zip(range(-2, 3), (1 / 16, 1 / 4, 3 / 8, 1 / 4, 1 / 16)):
            step[d, (d + delta) % n] += prob
    return np.linalg.solve(np.eye(n - 1) - step[1:, 1:], np.ones(n - 1)).max()


def test_readme_sweep_coupling_within_its_written_bound(tmp_path):
    cfg = ExperimentConfig(agent=TopologySpec("cycle", 11),
                           constraint=TopologySpec("path", 10, directed=True),
                           sweep="n", sweep_start=11, sweep_stop=101, sweep_stride=10,
                           epsilon=0.25, seed=1, alpha=0.5, outdir=str(tmp_path / "out"))
    run_experiment(cfg)
    with open(os.path.join(cfg.outdir, "experiment.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == list(range(11, 102, 10))
    for row in rows:
        # the directed path's only closed class is its sink, so L is the cycle's
        exact = lazy_cycle_worst_meeting_time(int(row["n"]))
        assert abs(float(row["coupling_L"]) - exact) <= float(row["coupling_se"])
        assert float(row["coupling_se"]) < 1e-8 * exact


def test_sweep_decomposes_and_solves_each_chain_once(tmp_path, monkeypatch):
    # the fixed path's chain is built once and shared by every point, so the
    # three cycles, the path and its sink are each decomposed once, and the
    # cycles and the sink each get one Perron solve
    calls = {"scc_decompose": 0, "_dominant_eigenpair": 0}
    for name in calls:
        real = getattr(stochastic, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(stochastic, name, counting)
    run_experiment(ExperimentConfig(agent=TopologySpec("cycle", 11),
                                    constraint=TopologySpec("path", 10, directed=True),
                                    sweep="n", sweep_start=11, sweep_stop=31, sweep_stride=10,
                                    seed=1, alpha=0.5, outdir=str(tmp_path / "out")))
    assert calls == {"scc_decompose": 5, "_dominant_eigenpair": 4}


def test_readme_sweep_limits_come_from_the_factors(tmp_path, monkeypatch):
    # every README-sweep agent is oblivious, so each point's limit is
    # A^inf (x) C^inf: no pair rows are built, and the shared path's
    # absorption into its sink is solved once, for all ten points
    counts = count_limit_work(monkeypatch)
    rows = run_experiment(ExperimentConfig(
        agent=TopologySpec("cycle", 11), constraint=TopologySpec("path", 10, directed=True),
        sweep="n", sweep_start=11, sweep_stop=101, sweep_stride=10, epsilon=0.25, seed=1,
        alpha=0.5, outdir=str(tmp_path / "out")))
    assert [int(row["t_mix"]) for row in rows] == README_SWEEP_T_MIX
    assert counts == {"kron": 0, "pair": [], "factor": [9]}


class TestRunExperiment:
    def test_small_config_csv_pinned(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        with open(os.path.join(cfg.outdir, "experiment.csv"), encoding="utf-8") as fh:
            assert fh.read() == SMALL_CONFIG_CSV

    def test_schema_and_determinism(self, tmp_path):
        cfg = small_config(tmp_path)
        rows = run_experiment(cfg)
        csv_path = os.path.join(cfg.outdir, "experiment.csv")
        first = open(csv_path, encoding="utf-8").read()
        assert first.splitlines()[0] == CSV_HEADER
        assert len(first.splitlines()) == 1 + 3
        # odd cycles converge; no errors expected
        assert all(r["error"] == "" for r in rows)
        assert all(r["converges"] == "true" for r in rows)
        # re-run reproduces the CSV byte for byte
        run_experiment(cfg)
        assert open(csv_path, encoding="utf-8").read() == first

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_points_run_in_order_on_calling_thread(self, tmp_path, monkeypatch, threads):
        monkeypatch.delenv("KRONMIX_THREADS", raising=False)
        if threads:
            monkeypatch.setenv("KRONMIX_THREADS", threads)
        calls, run_point = [], netio._run_point

        def recording(config, index, value, fixed):
            calls.append((threading.get_ident(), index))
            return run_point(config, index, value, fixed)

        monkeypatch.setattr(netio, "_run_point", recording)
        rows = run_experiment(small_config(tmp_path))
        assert calls == [(threading.get_ident(), i) for i in range(len(rows))]
        assert len(rows) == 3

    def test_error_rows_recorded(self, tmp_path):
        # even cycle sizes: periodic oblivious component, verdict false, no t_mix
        cfg = small_config(tmp_path, sweep_start=4, sweep_stop=6, sweep_stride=2)
        rows = run_experiment(cfg)
        assert rows[0]["converges"] == "false"
        assert rows[0]["t_mix"] == ""
        # a family minimum violation must land in the error column, not abort
        cfg2 = small_config(tmp_path, sweep_start=2, sweep_stop=6, sweep_stride=2)
        cfg2.outdir = str(tmp_path / "out2")
        rows2 = run_experiment(cfg2)
        assert rows2[0]["error"] != ""
        assert rows2[-1]["converges"] != ""
        # a swept graph whose chain cannot be built (node 0 is isolated) still
        # reports its size
        cfg3 = small_config(tmp_path, agent=DANGLING_ER, sweep_start=6, sweep_stop=6,
                            constraint=TopologySpec("cycle", 5))
        cfg3.outdir = str(tmp_path / "out3")
        rows3 = run_experiment(cfg3)
        assert [(r["n"], r["m"]) for r in rows3] == [(6, 5)]
        assert rows3[0]["error"].startswith("DanglingNode: node 0 ")

    @pytest.mark.parametrize("constraint, error", [
        (lambda tmp_path: str(tmp_path / "missing.txt"), "FileNotFoundError: "),
        # the fixed chain is built once, before any point sizes its graph
        (lambda tmp_path: DANGLING_ER, "DanglingNode: node 0 "),
    ], ids=["missing-file", "dangling-node"])
    def test_fixed_graph_error_on_every_row(self, tmp_path, constraint, error):
        cfg = small_config(tmp_path, constraint=constraint(tmp_path))
        rows = run_experiment(cfg)
        assert len(rows) == 3
        assert all(r["error"].startswith(error) for r in rows)
        assert all(r["n"] == r["m"] == "" for r in rows)

    def test_tmix_column_monotone_for_cycles(self, tmp_path):
        cfg = small_config(tmp_path, sweep_start=5, sweep_stop=13, sweep_stride=4)
        rows = run_experiment(cfg)
        ts = [int(r["t_mix"]) for r in rows]
        assert ts == sorted(ts)

    def test_svg_written(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        svg = os.path.join(cfg.outdir, "t_mix.svg")
        assert os.path.exists(svg)
        body = open(svg, encoding="utf-8").read()
        assert body.startswith("<svg") and "slope" in body

    def test_rerun_removes_plots_it_does_not_redraw(self, tmp_path, capsys):
        outdir = str(tmp_path / "X")
        flags = ["experiment", "--agent-family", "cycle", "--constraint-family", "path",
                 "--constraint-directed", "--constraint-n", "4", "--sweep-stride", "2",
                 "--trials", "20", "--outdir", outdir]
        plots = {"t_mix.svg", "coupling_L.svg", "absorbing_H.svg", "theorem_bound.svg"}
        assert main(flags + ["--sweep-start", "5", "--sweep-stop", "9"]) == 0
        assert plots <= set(os.listdir(outdir))
        # even cycles without laziness are periodic: no row has a metric to plot
        assert main(flags + ["--sweep-start", "4", "--sweep-stop", "8", "--alpha", "0"]) == 0
        with open(os.path.join(outdir, "experiment.csv"), encoding="utf-8") as fh:
            assert [line.split(",")[3] for line in fh.read().splitlines()[1:]] == ["false"] * 3
        assert os.listdir(outdir) == ["experiment.csv"]

    def test_coupling_state_cap_blanks_only_coupling_columns(self, tmp_path, monkeypatch):
        full = run_experiment(small_config(tmp_path))
        monkeypatch.setattr(mixing, "COUPLING_STATE_LIMIT", 6)
        capped = run_experiment(small_config(tmp_path, outdir=str(tmp_path / "capped")))
        blanked = ("coupling_L", "coupling_se", "theorem_bound")
        assert [row["n"] for row in capped] == [5, 7, 9]
        for row, ref in zip(capped, full):
            for key, value in ref.items():
                if key in blanked and row["n"] > 6:
                    assert row[key] == "", key
                else:
                    assert row[key] == value, key

    def test_capped_cells_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        # dims 30, 42, 54; closed classes of the cycles 5, 7, 9 and the path's sink
        flags = ["experiment", "--agent-family", "cycle", "--constraint-family", "path",
                 "--constraint-directed", "--constraint-n", "3", "--sweep-start", "5",
                 "--sweep-stop", "9", "--sweep-stride", "2", "--alpha", "0"]
        assert main(flags + ["--outdir", str(tmp_path / "full")]) == 0
        assert capsys.readouterr().err == ""
        # the caps' owners raise TooLarge, and each note quotes its message
        monkeypatch.setattr(limits, "LIMIT_MATRIX_CAP", 40)
        monkeypatch.setattr(mixing, "COUPLING_STATE_LIMIT", 8)
        assert main(flags + ["--outdir", str(tmp_path / "capped")]) == 0
        out, err = capsys.readouterr()
        assert "(0 with errors)" in out
        assert err.splitlines() == [
            "sweep point 7: blank t_mix, limit_consensus (limit matrix of a 42-state "
            "system; the cap is 40 states)",
            "sweep point 9: blank coupling_L, coupling_se, theorem_bound (coupling time on "
            "9 states needs about 0.00259 MB; the cap is 8 states); t_mix, limit_consensus "
            "(limit matrix of a 54-state system; the cap is 40 states)"]
        with open(tmp_path / "capped" / "experiment.csv", encoding="utf-8") as fh:
            assert fh.readline().rstrip("\n") == CSV_HEADER
            rows = list(csv.DictReader(fh, fieldnames=CSV_HEADER.split(",")))
        assert [(r["t_mix"] == "", r["coupling_L"] == "") for r in rows] == [
            (False, False), (True, False), (True, True)]

    def test_periodic_constraint_class_blanks_only_its_columns(self, tmp_path, capsys):
        # every agent is stubborn, so the system converges although C, a
        # directed 3-cycle, is periodic: only the columns C's class cannot
        # give stay blank, and t_mix and the limit are still reported
        cfg = ExperimentConfig(agent=TopologySpec("cycle", 5),
                               constraint=TopologySpec("cycle", 3, directed=True),
                               sweep="n", sweep_start=5, sweep_stop=7, sweep_stride=2,
                               lambda_policy="0.5", alpha=0.0, seed=1,
                               outdir=str(tmp_path / "out"))
        rows = run_experiment(cfg)
        blanked = ("lambda2", "lower_bound", "upper_bound", "coupling_L", "coupling_se",
                   "theorem_bound")
        assert [row["n"] for row in rows] == [5, 7]
        for row in rows:
            assert row["error"] == "" and row["converges"] == "true"
            assert row["t_mix"] == 2 and row["absorbing_H"] == 0
            assert [row[key] for key in blanked] == [""] * len(blanked)
        assert capsys.readouterr().err.splitlines() == [
            f"sweep point {n}: blank {', '.join(blanked)} (chain is periodic (period 3))"
            for n in (5, 7)]

    def test_epsilon_one_rejected_by_validation(self, tmp_path):
        cfg = small_config(tmp_path, epsilon=1.0)
        with pytest.raises(SpecError):
            cfg.sweep_values()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected_by_validation(self, tmp_path, trials):
        cfg = small_config(tmp_path, trials=trials)
        with pytest.raises(SpecError, match="trials"):
            cfg.sweep_values()

    def test_cycle_sweep_quadratic_growth(self, tmp_path):
        # odd cycles x directed path: t_mix climbs like n^2 (desk-scale range)
        cfg = ExperimentConfig(
            agent=TopologySpec("cycle", 11),
            constraint=TopologySpec("path", 10, directed=True),
            sweep="n", sweep_start=11, sweep_stop=51, sweep_stride=10,
            seed=2, trials=60, alpha=0.0, outdir=str(tmp_path / "quad"))
        rows = run_experiment(cfg)
        assert all(r["error"] == "" for r in rows)
        ts = [int(r["t_mix"]) for r in rows]
        assert ts == sorted(ts)
        slope = np.polyfit(np.log([r["sweep_value"] for r in rows]), np.log(ts), 1)[0]
        assert 1.4 <= slope <= 2.5

    def test_constraint_sweep_flat_until_dominant(self, tmp_path):
        # fixed slow agent graph: t_mix stays put until the constraints out-mix it
        cfg = ExperimentConfig(
            agent=TopologySpec("path", 25),
            constraint=TopologySpec("path", 5),
            sweep="m", sweep_start=5, sweep_stop=45, sweep_stride=20,
            seed=3, trials=60, alpha=0.5, outdir=str(tmp_path / "flat"))
        rows = run_experiment(cfg)
        assert all(r["error"] == "" for r in rows)
        ts = [int(r["t_mix"]) for r in rows]
        assert ts[1] <= ts[0] * 1.25  # constraints still dominated by the agents
        assert ts[2] > ts[0] * 1.5  # now the constraint graph sets the pace


class TestCsvAndSvg:
    def test_quoting(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, [{"sweep_value": 1, "error": 'bad, "thing"'}])
        body = open(path, encoding="utf-8").read()
        assert '"bad, ""thing"""' in body

    def test_svg_slope_recovers_power_law(self, tmp_path):
        xs = np.array([10, 20, 40, 80], dtype=float)
        ys = 3.0 * xs ** 2
        slope = svg_loglog(str(tmp_path / "p.svg"), xs, ys)
        assert slope == pytest.approx(2.0, abs=1e-9)


class TestChecksumAndInstructions:
    def test_checksum(self, tmp_path):
        path = write(tmp_path, "f.txt", "hello\n")
        import hashlib
        digest = hashlib.sha256(b"hello\n").hexdigest()
        assert verify_checksum(path, digest)
        assert not verify_checksum(path, "0" * 64)

    def test_instructions_written(self, tmp_path):
        path = dataset_instructions(str(tmp_path / "data"))
        body = open(path, encoding="utf-8").read()
        assert "wiki-Vote" in body
        # checksums are verified by `ingest`; the experiment config reads none
        assert "kronmix ingest <file> --sha256 <digest>" in body
        assert "agent.sha256" not in body


class TestCli:
    def test_generate_ok(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "--family", "cycle", "--n", "6", "--out", out]) == 0
        assert "nodes=6" in capsys.readouterr().out
        g = load_edgelist(out)
        assert g.node_count == 6

    def test_generate_header_names_seed(self, tmp_path, capsys):
        flags = ["generate", "--family", "erdos-renyi", "--n", "8", "--p", "0.5"]
        first, again = tmp_path / "er.txt", tmp_path / "again.txt"
        assert main(flags + ["--out", str(first)]) == 0
        header, *edges = first.read_text(encoding="utf-8").splitlines()
        # every field the flags set; last the default seed the graph was drawn with
        assert header == "# kronmix generate family=erdos-renyi n=8 p=0.5 seed=0"
        assert edges
        seed = header.rsplit("seed=", 1)[1]
        assert main(flags + ["--graph-seed", seed, "--out", str(again)]) == 0
        assert again.read_text(encoding="utf-8").splitlines()[1:] == edges
        for other, fields in ((["--family", "hypercube", "--k", "3"], "family=hypercube k=3"),
                              (["--family", "cycle", "--n", "5", "--directed"],
                               "family=cycle n=5 directed=True")):
            assert main(["generate"] + other + ["--out", str(first)]) == 0
            header = first.read_text(encoding="utf-8").splitlines()[0]
            assert header == f"# kronmix generate {fields} seed=0"

    def test_bad_family_exit_2(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "1"]) == 2

    def test_missing_file_exit_3(self, capsys):
        assert main(["ingest", "/nonexistent/file.txt"]) == 3

    def test_malformed_file_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "0 x\n")
        assert main(["ingest", path]) == 3

    def test_ingest_reports_counts(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", "0 1\n1 0\n1 2\n")
        assert main(["ingest", path]) == 0
        out = capsys.readouterr().out
        assert "raw: nodes=3" in out
        assert "largest-scc: nodes=2" in out

    def test_analyze_and_verdict(self, capsys):
        code = main(["analyze", "--agent-family", "cycle", "--agent-n", "5",
                     "--constraint-family", "path", "--constraint-n", "4",
                     "--constraint-directed"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converges: True" in out

    def test_simulate_nonconvergent_exit_4(self, capsys):
        code = main(["simulate", "--agent-family", "cycle", "--agent-n", "4",
                     "--constraint-family", "path", "--constraint-n", "4",
                     "--constraint-directed"])
        assert code == 4

    def test_simulate_bad_max_iter_exit_2(self, capsys):
        # a config error, even on a system whose verdict is negative
        code = main(["simulate", "--agent-family", "cycle", "--agent-n", "4",
                     "--constraint-family", "path", "--constraint-n", "4",
                     "--constraint-directed", "--max-iter", "-5"])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    def test_simulate_ok(self, capsys):
        code = main(["simulate", "--agent-family", "cycle", "--agent-n", "5",
                     "--constraint-family", "path", "--constraint-n", "4",
                     "--constraint-directed"])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out

    def test_mixing_command(self, capsys):
        assert main(["mixing", "--family", "complete", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "t_mix" in out
        # two walks on K6 share 4 of their 5 targets: they meet with probability
        # 4/25 each step, so L = 25/4
        assert re.search(r"^coupling L = 6.25 \(exact, error <= [0-9.e-]+, cg, "
                         r"[0-9]+ iterations\)$", out, re.MULTILINE)

    def test_mixing_command_above_the_t_mix_cap(self, capsys):
        # every start or a typed error: exit 4 before any solve or stepping
        assert main(["mixing", "--family", "cycle", "--n", "2100", "--alpha", "0.5"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("analysis error: TooLarge: t_mix")
        assert "every start of 2100 states; the cap is 2000\n" in err

    def test_limits_command(self, capsys):
        code = main(["limits", "--agent-family", "complete", "--agent-n", "4",
                     "--constraint-family", "complete", "--constraint-n", "3",
                     "--alpha", "0.3", "--social-power"])
        assert code == 0
        out = capsys.readouterr().out
        assert "structural limit" in out
        assert "social power" in out

    def test_experiment_with_config_and_override(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "cfg.txt",
                         "agent.family = cycle\nconstraint.family = path\n"
                         "constraint.directed = true\nconstraint.n = 3\n"
                         "sweep = n\nsweep.start = 5\nsweep.stop = 7\n"
                         "sweep.stride = 2\ntrials = 40\nalpha = 0\n"
                         f"outdir = {tmp_path / 'expout'}\n")
        assert main(["experiment", "--config", cfg_path, "--sweep-stop", "9"]) == 0
        csv_path = tmp_path / "expout" / "experiment.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3  # override extends the sweep to 5, 7, 9
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == ""  # config values survive absent flags
            assert cells[2] == "3"  # constraint.n taken from the file

    def test_experiment_missing_config_exit_2(self, capsys):
        assert main(["experiment", "--sweep", "n"]) == 2

    @pytest.mark.parametrize("alpha", ["-0.5", "1"])
    def test_experiment_alpha_out_of_range_exit_2(self, tmp_path, capsys, alpha):
        code = main(["experiment", "--agent-family", "cycle", "--agent-n", "5",
                     "--constraint-family", "path", "--constraint-n", "3",
                     "--sweep-start", "5", "--sweep-stop", "5", "--trials", "20",
                     "--alpha", alpha, "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["agent", "constraint"])
    def test_experiment_rejects_undirected_file(self, tmp_path, capsys, side):
        # the sweep reads edge lists as directed, so it takes no undirected-file flag
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n2 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--agent-path", path, "--constraint-family", "cycle",
                  "--constraint-n", "3", f"--{side}-undirected-file",
                  "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_analyze_agent_path_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        load = netio.load_edgelist
        monkeypatch.setattr(netio, "load_edgelist",
                            lambda *a, **kw: calls.append(a) or load(*a, **kw))
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n2 3\n3 2\n3 4\n")
        code = main(["analyze", "--agent-path", path, "--constraint-family", "path",
                     "--constraint-n", "3", "--constraint-directed"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=5 edges=6" in out  # the report covers the raw graph
        assert "converges: True" in out
        assert len(calls) == 1

    def test_experiment_fixed_graph_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        load = netio.load_edgelist
        monkeypatch.setattr(netio, "load_edgelist",
                            lambda *a, **kw: calls.append(a) or load(*a, **kw))
        path = write(tmp_path, "g.txt", "0 1\n1 2\n2 0\n2 3\n3 2\n3 4\n")
        code = main(["experiment", "--agent-path", path, "--constraint-family", "cycle",
                     "--sweep", "m", "--sweep-start", "3", "--sweep-stop", "7",
                     "--sweep-stride", "1", "--trials", "20",
                     "--outdir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 sweep points" in out and "(0 with errors)" in out
        assert len(calls) == 1  # the agent graph is not swept: read once, not per point

    @pytest.mark.parametrize("argv", [
        ["simulate", "--lam", "@{lam}"],
        ["simulate", "--x0-constant", "2"],
        ["simulate", "--x0-constant", "nan"],
        ["simulate", "--lam", "@{nan_lam}"],
        ["simulate", "--max-iter", "-5"],
        ["simulate", "--stop-delta", "-1"],
        ["simulate", "--stop-delta", "nan"],
        ["mixing", "--family", "cycle", "--n", "5", "--epsilon", "1.5"],
        ["mixing", "--family", "cycle", "--n", "5", "--alpha", "1.5"],
        ["experiment", "--trials", "0"],
        ["experiment", "--trials", "-3"],
        ["experiment", "--seed", "-1"],
    ])
    def test_rejected_input_exit_2(self, tmp_path, capsys, argv):
        lam = write(tmp_path, "lam.txt", "2\n2\n2\n2\n2\n")
        nan_lam = write(tmp_path, "nan-lam.txt", "1\n1\nnan\n1\n1\n")
        argv = [a.format(lam=lam, nan_lam=nan_lam) for a in argv]
        if argv[0] == "simulate":
            argv += ["--agent-family", "cycle", "--agent-n", "5",
                     "--constraint-family", "cycle", "--constraint-n", "3"]
        if argv[0] == "experiment":
            argv += ["--agent-family", "cycle", "--constraint-family", "cycle",
                     "--constraint-n", "3", "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_option_strings_pinned(self):
        def graph(prefix):
            return [f"--{prefix}{name}" for name in
                    ("family", "n", "k", "p", "r", "bridge", "graph-seed", "directed",
                     "path", "undirected-file")]

        system = graph("agent-") + graph("constraint-") + [
            "--lam", "--alpha", "--x0-seed", "--x0-constant"]
        pinned = {
            "generate": graph("") + ["--out"],
            "ingest": ["--undirected-file", "--sha256", "--instructions"],
            "analyze": system,
            "simulate": system + ["--stop-delta", "--max-iter", "--force", "--out"],
            "mixing": graph("") + ["--alpha", "--epsilon"],
            "limits": system + ["--social-power"],
            "experiment": ["--config"] + graph("agent-") + graph("constraint-") + [
                "--sweep", "--sweep-start", "--sweep-stop", "--sweep-stride", "--epsilon",
                "--seed", "--trials", "--lam", "--alpha", "--outdir"],
        }
        # the sweep reads edge lists as directed, so it takes no undirected-file flag
        pinned["experiment"].remove("--agent-undirected-file")
        pinned["experiment"].remove("--constraint-undirected-file")
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        surface = {name: [s for a in sub._actions for s in a.option_strings
                          if s not in ("-h", "--help")]
                   for name, sub in subparsers.choices.items()}
        assert surface == pinned

    def test_experiment_flags_are_config_keys(self, capsys, monkeypatch):
        configs = []
        monkeypatch.setattr(netio, "run_experiment", lambda cfg: configs.append(cfg) or [])

        def graph(prefix, family, base):
            return [f"--{prefix}-family", family, f"--{prefix}-n", str(base),
                    f"--{prefix}-k", str(base + 1), f"--{prefix}-p", "0.25",
                    f"--{prefix}-r", "0.5", f"--{prefix}-bridge", str(base + 2),
                    f"--{prefix}-graph-seed", str(base + 3), f"--{prefix}-directed"]

        argv = ["experiment"] + graph("agent", "erdos-renyi", 10) + graph(
            "constraint", "newman-watts", 20) + [
            "--sweep", "m", "--sweep-start", "3", "--sweep-stop", "8",
            "--sweep-stride", "5", "--epsilon", "0.125", "--seed", "9", "--trials", "7",
            "--lam", "0.75", "--alpha", "0.375", "--outdir", "somewhere"]
        assert main(argv) == 0
        assert main(["experiment", "--agent-path", "a.txt", "--constraint-path", "c.txt",
                     "--sweep", "m"]) == 0
        assert configs[0] == ExperimentConfig(
            agent=TopologySpec("erdos-renyi", 10, k=11, p=0.25, r=0.5, bridge=12, seed=13,
                               directed=True),
            constraint=TopologySpec("newman-watts", 20, k=21, p=0.25, r=0.5, bridge=22,
                                    seed=23, directed=True),
            sweep="m", sweep_start=3, sweep_stop=8, sweep_stride=5, epsilon=0.125,
            seed=9, trials=7, lambda_policy="0.75", alpha=0.375, outdir="somewhere")
        assert (configs[1].agent, configs[1].constraint) == ("a.txt", "c.txt")


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "wiki-Vote.txt")),
                    reason="SNAP datasets not supplied (see `kronmix ingest --instructions`)")
class TestWikiVoteRows:
    def test_largest_scc_rows_sum_to_one(self):
        from kronmix.stochastic import equal_weight_matrix
        from kronmix.generators import lazify
        g = largest_scc(load_edgelist(os.path.join(DATA_DIR, "wiki-Vote.txt")))
        m = equal_weight_matrix(lazify(g, 0.5))
        sums = np.asarray(m.csr.sum(axis=1)).ravel()
        assert m.n == 1300
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
