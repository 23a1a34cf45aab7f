"""Dataset ingestion, experiment orchestration, CSV and SVG output.

File conventions: SNAP-style edge lists ('#' comments, whitespace-separated
integer pairs), RFC-4180-ish CSV with a fixed header, and flat key = value
config files whose keys are those of the experiment flags. The sweep's
`t_mix` is `mixing.system_mixing_time`, imported here by name.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import mixing
from .beliefs import BeliefSystem, assemble, closed_factor_classes, converges
from .errors import EmptyGraph, KronmixError, NotErgodic, ParseError, SpecError, TooLarge
from .generators import TopologySpec, generate, lazify
from .graphs import DirectedGraph, scc_decompose
from .limits import structural_limit
from .mixing import system_mixing_time
from .stochastic import StochasticMatrix, equal_weight_matrix

CSV_HEADER = ("sweep_value,n,m,converges,t_mix,lambda2,lower_bound,upper_bound,"
              "coupling_L,coupling_se,absorbing_H,theorem_bound,limit_consensus,error")

SNAP_SOURCES = {
    "wiki-Vote.txt": "https://snap.stanford.edu/data/wiki-Vote.txt.gz",
    "ca-GrQc.txt": "https://snap.stanford.edu/data/ca-GrQc.txt.gz",
    "facebook_combined.txt": "https://snap.stanford.edu/data/facebook_combined.txt.gz",
}


# -- edge lists ------------------------------------------------------------

_INT64 = re.compile(r"[+-]?[0-9]+")


def load_edgelist(path: str, directed: bool = True) -> DirectedGraph:
    """Parse a SNAP edge list; node ids become dense 0-based indices.

    '#' starts a comment. The original ids (sorted ascending) are kept in
    graph.meta["id_map"]. Duplicate edges merge; undirected mode symmetrizes.
    Malformed lines raise ParseError with their line number; a file with no
    edges raises EmptyGraph.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # np.loadtxt warns on a file without data rows, so look for one first
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise EmptyGraph(f"{path} contains no edges")
        fh.seek(0)
        try:
            pairs = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
            if pairs.shape[1] != 2:
                raise ValueError(f"rows hold {pairs.shape[1]} fields")
        except ValueError as exc:
            fh.seek(0)
            raise _bad_line(fh, exc) from None
    ids, edges = np.unique(pairs, return_inverse=True)
    return DirectedGraph(ids.size, edges.reshape(-1, 2), directed=directed,
                         meta={"id_map": ids})


def _bad_line(lines, exc: ValueError) -> ParseError:
    """ParseError naming the first line that is not two 64-bit integers.

    np.loadtxt numbers its errors by data row, not by line of the file, so a
    failed parse is scanned again for the line number.
    """
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        parts = text.split()
        if not parts:
            continue
        if len(parts) != 2:
            return ParseError(lineno, f"expected two fields, got {len(parts)}")
        if not all(_INT64.fullmatch(p) and -2**63 <= int(p) < 2**63 for p in parts):
            return ParseError(lineno, f"endpoint is not a 64-bit integer in {text!r}")
    return ParseError(0, str(exc))


def largest_scc(graph: DirectedGraph) -> DirectedGraph:
    """Induced subgraph on the largest component.

    Ties break toward the component holding the smallest original id. The
    returned graph's meta carries the original ids of its nodes.
    """
    decomp = scc_decompose(graph)
    id_map = graph.meta.get("id_map")
    orig = id_map if id_map is not None else np.arange(graph.node_count)

    def key(cid):
        comp = decomp.components[cid]
        return (-comp.size, int(orig[comp].min()))

    best = min(range(decomp.count), key=key)
    nodes = decomp.components[best]
    sub = graph.subgraph(nodes)
    sub.meta["id_map"] = np.asarray(orig)[nodes]
    sub.meta["parent_nodes"] = nodes
    return sub


def verify_checksum(path: str, sha256_hex: str) -> bool:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest() == sha256_hex.lower()


def dataset_instructions(outdir: str) -> str:
    """Write fetch instructions for the SNAP datasets; returns the file path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "FETCH_DATASETS.txt")
    lines = ["Datasets are not bundled. Download, gunzip, and place here:", ""]
    for name, url in SNAP_SOURCES.items():
        lines.append(f"  curl -LO {url} && gunzip {os.path.basename(url)}  # -> {name}")
    lines += ["", "To verify a download before use, run",
              "  kronmix ingest <file> --sha256 <digest>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# -- experiment configuration ----------------------------------------------

@dataclass
class ExperimentConfig:
    """One sweep: vary n or m, measure what the row schema reports."""

    agent: TopologySpec | str  # topology or dataset path
    constraint: TopologySpec | str
    sweep: str = "n"  # exactly one of "n" | "m"
    sweep_start: int = 10
    sweep_stop: int = 50
    sweep_stride: int = 10
    epsilon: float = 0.25
    seed: int = 0
    trials: int = 200  # validated but unused: coupling times are solved exactly
    lambda_policy: str = "oblivious"  # "oblivious" | scalar string | @file
    alpha: float = 0.5  # lazy self-weight applied to both graphs (0 disables)
    outdir: str = "experiment-out"

    def sweep_values(self) -> list[int]:
        if self.sweep not in ("n", "m"):
            raise SpecError(f"sweep must be 'n' or 'm', got {self.sweep!r}")
        if self.sweep_stride <= 0 or self.sweep_stop < self.sweep_start:
            raise SpecError("empty sweep range")
        if not 0 < self.epsilon < 1:
            raise SpecError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 <= self.alpha < 1:
            raise SpecError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.trials < 1:
            raise SpecError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        return list(range(self.sweep_start, self.sweep_stop + 1, self.sweep_stride))


# config key -> ExperimentConfig field, for the fields after agent and constraint
_CONFIG_FIELDS = {"lambda" if f.name == "lambda_policy" else f.name.replace("_", "."): f
                  for f in fields(ExperimentConfig)[2:]}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def read_config(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment; later keys win.

    The keys are those the experiment flags map to. An unknown key, or a
    `directed` value other than true/false/yes/no/1/0, raises SpecError
    naming its line.
    """
    known = set(_CONFIG_FIELDS).union(f"{side}.{key}" for side in ("agent", "constraint")
                                      for key in ["path"] + [f.name for f in fields(TopologySpec)])
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(lineno, f"expected key = value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in known:
                raise SpecError(f"{path} line {lineno}: unknown key {key!r}")
            if key.endswith(".directed") and value.lower() not in _BOOLEANS:
                raise SpecError(f"{path} line {lineno}: {key} must be true, false, yes, no, "
                                f"1 or 0, got {value!r}")
            values[key] = value
    return values


def source_from_mapping(mapping: dict, prefix: str) -> TopologySpec | str:
    """The TopologySpec under the `prefix.` keys, or the dataset path `prefix.path`.

    Values are config-file strings or parsed CLI flags, whose dests are these keys.
    """
    path = mapping.get(f"{prefix}.path")
    if path:
        return path
    family = mapping.get(f"{prefix}.family")
    if not family:
        raise SpecError(f"no {prefix} family or path given")

    def pick(key, cast, default=None):
        raw = mapping.get(f"{prefix}.{key}")
        return default if raw is None else cast(raw)

    return TopologySpec(
        family=family,
        n=pick("n", int, 0),
        k=pick("k", int),
        p=pick("p", float),
        r=pick("r", float),
        bridge=pick("bridge", int),
        seed=pick("seed", int, 0),
        directed=pick("directed", lambda s: _BOOLEANS[str(s).lower()], False),
    )


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat keys (file or CLI-merged).

    A field's key is its name with '.' for '_' ('lambda' for lambda_policy);
    absent or empty keys keep the field's default.
    """
    values = {}
    for key, field in _CONFIG_FIELDS.items():
        if mapping.get(key) not in (None, ""):
            values[field.name] = type(field.default)(mapping[key])
    cfg = ExperimentConfig(agent=source_from_mapping(mapping, "agent"),
                           constraint=source_from_mapping(mapping, "constraint"), **values)
    cfg.sweep_values()  # validate eagerly: bad configs are exit-code-2 errors
    return cfg


def _thread_count() -> int:
    """1: `run_experiment` runs its sweep points one after another.

    Kept only for `kronbench/tracing.py`, which scales `netio.pool_busy_ratio`
    by it; it goes with the benchmark refresh, ROADMAP item 1.
    """
    return 1


# -- sweep execution ---------------------------------------------------------

def resolve_graph(source: TopologySpec | str | DirectedGraph, alpha: float = 0.0,
                  size: int | None = None) -> DirectedGraph:
    """The graph a source names, lazified with self-weight alpha unless alpha is 0.

    A TopologySpec is generated, at n = size when a sweep sets the size. A
    path is read as a directed edge list; it, or an edge list already
    loaded, is reduced to its largest SCC.
    """
    if isinstance(source, TopologySpec):
        graph = generate(source if size is None else replace(source, n=size))
    elif size is not None:
        raise SpecError("cannot sweep the size of a dataset graph")
    else:
        graph = largest_scc(load_edgelist(source) if isinstance(source, str) else source)
    return lazify(graph, alpha) if alpha else graph


def build_system(agent: StochasticMatrix, constraint: StochasticMatrix, lambda_policy: str,
                 rng, x0_constant: float | None = None) -> BeliefSystem:
    """Belief system on the agents' and the constraints' chains.

    The chains are shared, not copied, so what a chain keeps (its `scc`,
    stationary vector and restrictions) serves every system built on it.
    lambda follows `lambda_policy` ('oblivious', a scalar, or @file); x0 is
    x0_constant everywhere, or uniform draws from rng.
    """
    lam = _lambda_vector(lambda_policy, agent.n)
    if x0_constant is None:
        x0 = rng.random((agent.n, constraint.n))
    else:
        x0 = np.full((agent.n, constraint.n), x0_constant)
    return assemble(agent, constraint, lam, x0)


def _lambda_vector(policy: str, n: int) -> np.ndarray:
    if policy == "oblivious":
        return np.ones(n)
    if policy.startswith("@"):
        values = np.loadtxt(policy[1:], dtype=np.float64).ravel()
        if values.size != n:
            raise SpecError(f"lambda file has {values.size} entries for {n} agents")
        return values
    try:
        scalar = float(policy)
    except ValueError:
        raise SpecError(f"unknown lambda policy {policy!r}") from None
    if not 0 <= scalar <= 1:
        raise SpecError("uniform lambda must lie in [0, 1]")
    return np.full(n, scalar)


def _lemma_terms(system: BeliefSystem, oblivious: frozenset[int]) -> tuple:
    """(L, its error bound, H, |lambda_2|, failure) of a convergent system.

    L is the first largest coupling time and |lambda_2| the largest (None if
    every class is one state) over `closed_factor_classes`, agents first.
    `failure` is None, the first `TooLarge` of a class that L leaves out, or
    the `NotErgodic` of a periodic class, which ends the loop. H is the larger
    absorbing time of the oblivious agents' chain (0 if none) and of C.
    """
    nodes = np.asarray(sorted(oblivious), dtype=np.int64)
    h = mixing.expected_absorbing_time(system.c).max_expectation
    if nodes.size:
        h = max(h, mixing.expected_absorbing_time(system.a.restrict(nodes)).max_expectation)
    coupling, lambda2, failure = (0.0, 0.0), None, None
    for factor, classes in zip((system.a, system.c), closed_factor_classes(system)):
        for members, _ in classes:
            chain = factor.restrict(members)
            if chain.n == 1:
                continue
            try:
                est = mixing.estimate_coupling_time(chain)
            except TooLarge as exc:
                failure = failure or exc
            except NotErgodic as exc:
                return 0.0, 0.0, h, None, exc
            else:
                if est.mean > coupling[0]:
                    coupling = (est.mean, est.stderr)
            lam = mixing.second_eigenvalue(chain)
            lambda2 = lam if lambda2 is None else max(lambda2, lam)
    return coupling + (h, lambda2, failure)


def _run_point(config: ExperimentConfig, index: int, value: int,
               fixed: StochasticMatrix | Exception) -> dict:
    """One CSV row; `fixed` is the chain the sweep does not size, or its error.

    An error of `fixed` leaves n and m blank; both are written before the
    swept graph's chain is built. Cells left blank by a size cap or a periodic
    closed factor class are named on one stderr line, each group with the
    library's message.
    """
    blank = []
    row = dict.fromkeys(CSV_HEADER.split(","), "") | {"sweep_value": value}
    try:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((config.seed, index))))
        if isinstance(fixed, Exception):
            raise fixed
        graph = resolve_graph(config.agent if config.sweep == "n" else config.constraint,
                              config.alpha, value)
        n, m = (graph.node_count, fixed.n) if config.sweep == "n" else (fixed.n, graph.node_count)
        row["n"], row["m"] = n, m
        swept = equal_weight_matrix(graph)
        agent, constraint = (swept, fixed) if config.sweep == "n" else (fixed, swept)
        system = build_system(agent, constraint, config.lambda_policy, rng)
        verdict = converges(system)
        row["converges"] = "true" if verdict.converges else "false"

        if verdict.converges:
            coupling, se, h, lam2, failure = _lemma_terms(system, verdict.oblivious_agents)
            row["absorbing_H"] = h
            if isinstance(failure, NotErgodic):
                blank.append("lambda2, lower_bound, upper_bound, coupling_L, coupling_se, "
                             f"theorem_bound ({failure})")
            elif failure is None:
                row["coupling_L"] = coupling
                # the CSV prints 10 significant digits, which moves L by up to 5e-10 of it
                row["coupling_se"] = se + 5e-10 * coupling
                row["theorem_bound"] = mixing.theorem_bound(coupling, 0.0, h, 0.0, config.epsilon)
            else:
                blank.append(f"coupling_L, coupling_se, theorem_bound ({failure})")
            if lam2 is not None:
                row["lambda2"] = lam2
                if lam2 < 1.0:
                    row["lower_bound"], row["upper_bound"] = mixing.spectral_bounds(
                        lam2, n * m, config.epsilon)
            try:
                t_mix, report = system_mixing_time(system, config.epsilon), structural_limit(system)
            except TooLarge as exc:
                blank.append(f"t_mix, limit_consensus ({exc})")
            else:
                row["t_mix"] = t_mix
                if report.consensus is not None:
                    row["limit_consensus"] = report.consensus
    except (KronmixError, ValueError, OSError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    if blank:
        print(f"sweep point {value}: blank " + "; ".join(blank), file=sys.stderr)
    return row


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the sweep, write experiment.csv and one SVG per plotted metric.

    Points run one after another in sweep order, each on its own Philox
    stream SeedSequence((seed, index)). The chain of the graph whose size is
    not swept is built once, and every point shares it and what it keeps; if
    it cannot be built, every row carries that error with n and m blank.
    Other errors land in their row's error column. An SVG that this run does
    not redraw is removed, so none outlives its CSV.
    """
    values = config.sweep_values()
    try:
        fixed = equal_weight_matrix(resolve_graph(
            config.constraint if config.sweep == "n" else config.agent, config.alpha))
    except (KronmixError, ValueError, OSError) as exc:
        fixed = exc  # every row reports it
    rows = [_run_point(config, i, v, fixed) for i, v in enumerate(values)]

    os.makedirs(config.outdir, exist_ok=True)
    write_csv(os.path.join(config.outdir, "experiment.csv"), rows)
    for metric in ("t_mix", "coupling_L", "absorbing_H", "theorem_bound"):
        xs, ys = [], []
        for row in rows:
            if row[metric] != "" and row["error"] == "":
                xs.append(float(row["sweep_value"]))
                ys.append(float(row[metric]))
        path = os.path.join(config.outdir, f"{metric}.svg")
        if os.path.exists(path):
            os.remove(path)  # a plot from an earlier run into this outdir
        if len(xs) >= 2 and min(ys) > 0:
            svg_loglog(path, xs, ys, xlabel=config.sweep, ylabel=metric,
                       title=f"{metric} vs {config.sweep}")
    return rows


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path: str, rows: list[dict]) -> None:
    """Schema-stable CSV: fixed header, '\\n' endings, UTF-8."""
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        cells = []
        for col in columns:
            cell = _format_cell(row.get(col, ""))
            if any(ch in cell for ch in ",\"\n"):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# -- minimal SVG plotting ----------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 640, 440, 60


def _ticks_log10(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def svg_loglog(path: str, xs, ys, xlabel: str = "x", ylabel: str = "y",
               title: str = "") -> float | None:
    """Log-log scatter with a least-squares slope annotation; returns the slope."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0 and math.isfinite(x * y)]
    if len(pts) < 2:
        return None
    lx = np.log10([p[0] for p in pts])
    ly = np.log10([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)

    x_lo, x_hi = float(lx.min()), float(lx.max())
    y_lo, y_hi = float(ly.min()), float(ly.max())
    x_hi += 1e-9 if x_hi == x_lo else 0
    y_hi += 1e-9 if y_hi == y_lo else 0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    inner_w = _SVG_W - 2 * _SVG_PAD
    inner_h = _SVG_H - 2 * _SVG_PAD

    def px(v):
        return _SVG_PAD + (v - x_lo) / span_x * inner_w

    def py(v):
        return _SVG_H - _SVG_PAD - (v - y_lo) / span_y * inner_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
             f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
             f'<text x="{_SVG_W / 2:.0f}" y="24" text-anchor="middle" '
             f'font-size="15">{title}</text>']
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_SVG_PAD}" y1="{_SVG_H - _SVG_PAD}" '
                 f'x2="{_SVG_W - _SVG_PAD}" y2="{_SVG_H - _SVG_PAD}" {axis}/>')
    parts.append(f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" '
                 f'x2="{_SVG_PAD}" y2="{_SVG_H - _SVG_PAD}" {axis}/>')
    for t in _ticks_log10(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(f'<line x1="{px(t):.1f}" y1="{_SVG_H - _SVG_PAD}" '
                         f'x2="{px(t):.1f}" y2="{_SVG_H - _SVG_PAD + 5}" {axis}/>')
            parts.append(f'<text x="{px(t):.1f}" y="{_SVG_H - _SVG_PAD + 20}" '
                         f'text-anchor="middle" font-size="11">1e{t}</text>')
    for t in _ticks_log10(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(f'<line x1="{_SVG_PAD - 5}" y1="{py(t):.1f}" '
                         f'x2="{_SVG_PAD}" y2="{py(t):.1f}" {axis}/>')
            parts.append(f'<text x="{_SVG_PAD - 8}" y="{py(t):.1f}" '
                         f'text-anchor="end" font-size="11">1e{t}</text>')
    fit_y0 = intercept + slope * x_lo
    fit_y1 = intercept + slope * x_hi
    parts.append(f'<line x1="{px(x_lo):.1f}" y1="{py(fit_y0):.1f}" '
                 f'x2="{px(x_hi):.1f}" y2="{py(fit_y1):.1f}" '
                 f'stroke="#1f77b4" stroke-width="1" stroke-dasharray="4,3"/>')
    for x, y in zip(lx, ly):
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" '
                     f'fill="#d62728"/>')
    parts.append(f'<text x="{_SVG_W - _SVG_PAD}" y="{_SVG_PAD - 8}" text-anchor="end" '
                 f'font-size="12">slope = {slope:.3f}</text>')
    parts.append(f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" text-anchor="middle" '
                 f'font-size="12">{xlabel} (log)</text>')
    parts.append(f'<text x="16" y="{_SVG_H / 2:.0f}" font-size="12" '
                 f'transform="rotate(-90 16 {_SVG_H / 2:.0f})" '
                 f'text-anchor="middle">{ylabel} (log)</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return float(slope)
