"""Dataset ingestion, experiment orchestration, CSV and SVG output.

File conventions: SNAP-style edge lists ('#' comments, whitespace-separated
integer pairs), RFC-4180-ish CSV with a fixed header, and flat key = value
config files whose keys mirror the CLI flags.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import mixing
from .beliefs import BeliefSystem, assemble, converges, update
from .errors import EmptyGraph, KronmixError, ParseError, SpecError
from .generators import TopologySpec, generate, lazify
from .graphs import DirectedGraph, scc_decompose
from .limits import LIMIT_MATRIX_CAP, limit_matrix, structural_limit
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
    trials: int = 200
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


def read_config(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment; later keys win."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(lineno, f"expected key = value, got {text!r}")
            key, value = text.split("=", 1)
            values[key.strip()] = value.strip()
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
        directed=pick("directed", lambda s: str(s).lower() in ("1", "true", "yes"), False),
    )


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from flat keys (file or CLI-merged).

    A field's key is its name with '.' for '_' ('lambda' for lambda_policy);
    absent or empty keys keep the field's default.
    """
    values = {}
    for field in fields(ExperimentConfig)[2:]:  # the fields after agent and constraint
        key = "lambda" if field.name == "lambda_policy" else field.name.replace("_", ".")
        if mapping.get(key) not in (None, ""):
            values[field.name] = type(field.default)(mapping[key])
    cfg = ExperimentConfig(agent=source_from_mapping(mapping, "agent"),
                           constraint=source_from_mapping(mapping, "constraint"), **values)
    cfg.sweep_values()  # validate eagerly: bad configs are exit-code-2 errors
    return cfg


def _thread_count() -> int:
    """1: `run_experiment` runs its sweep points one after another.

    Kept only for `kronbench/tracing.py`, which scales `netio.pool_busy_ratio`
    by it; it goes with the benchmark refresh, ROADMAP item 8.
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


def build_system(agent: DirectedGraph, constraint: DirectedGraph, lambda_policy: str,
                 rng, x0_constant: float | None = None) -> BeliefSystem:
    """Equal-weight belief system on two graphs.

    lambda follows `lambda_policy` ('oblivious', a scalar, or @file); x0 is
    x0_constant everywhere, or uniform draws from rng.
    """
    a = equal_weight_matrix(agent)
    c = equal_weight_matrix(constraint)
    lam = _lambda_vector(lambda_policy, a.n)
    if x0_constant is None:
        x0 = rng.random((a.n, c.n))
    else:
        x0 = np.full((a.n, c.n), x0_constant)
    return assemble(a, c, lam, x0)


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


def _factor_metrics(matrix: StochasticMatrix, trials: int, rng) -> dict:
    """Per-factor L (worst closed-component coupling), H, |lambda_2|."""
    decomp = scc_decompose(matrix.to_graph())
    coupling_mean = coupling_se = 0.0
    lambda2 = None
    for cid in decomp.closed_components():
        comp = decomp.components[cid]
        minor = StochasticMatrix(matrix.minor(comp), renormalize=True)
        if minor.n > 1:
            est = mixing.estimate_coupling_time(minor, trials=trials, rng=rng)
            if est.mean > coupling_mean:
                coupling_mean, coupling_se = est.mean, est.stderr
            lam = mixing.second_eigenvalue(minor)
            lambda2 = lam if lambda2 is None else max(lambda2, lam)
    times = mixing.expected_absorbing_time(matrix, decomp)
    return {"L": coupling_mean, "L_se": coupling_se,
            "H": times.max_expectation, "lambda2": lambda2}


def _run_point(config: ExperimentConfig, index: int, value: int,
               fixed: DirectedGraph | Exception) -> dict:
    """One CSV row; `fixed` is the graph the sweep does not size, or its error."""
    row = {"sweep_value": value, "n": "", "m": "", "converges": "", "t_mix": "",
           "lambda2": "", "lower_bound": "", "upper_bound": "", "coupling_L": "",
           "coupling_se": "", "absorbing_H": "", "theorem_bound": "",
           "limit_consensus": "", "error": ""}
    try:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((config.seed, index))))
        if isinstance(fixed, Exception):
            raise fixed
        swept = resolve_graph(config.agent if config.sweep == "n" else config.constraint,
                              config.alpha, value)
        agent, constraint = (swept, fixed) if config.sweep == "n" else (fixed, swept)
        n, m = agent.node_count, constraint.node_count
        row["n"], row["m"] = n, m
        system = build_system(agent, constraint, config.lambda_policy, rng)
        verdict = converges(system)
        row["converges"] = "true" if verdict.converges else "false"

        if verdict.converges:
            # theorem-style metrics: agent side restricted to oblivious agents
            nodes = np.asarray(sorted(verdict.oblivious_agents), dtype=np.int64)
            if nodes.size:
                a_obl = StochasticMatrix(system.a.minor(nodes), renormalize=True)
                g_metrics = _factor_metrics(a_obl, config.trials, rng)
            else:
                g_metrics = {"L": 0.0, "L_se": 0.0, "H": 0.0, "lambda2": None}
            t_metrics = _factor_metrics(system.c, config.trials, rng)
            row["coupling_L"] = max(g_metrics["L"], t_metrics["L"])
            row["coupling_se"] = (g_metrics["L_se"] if g_metrics["L"] >= t_metrics["L"]
                                  else t_metrics["L_se"])
            row["absorbing_H"] = max(g_metrics["H"], t_metrics["H"])
            row["theorem_bound"] = mixing.theorem_bound(
                g_metrics["L"], t_metrics["L"], g_metrics["H"], t_metrics["H"],
                config.epsilon)
            lams = [v for v in (g_metrics["lambda2"], t_metrics["lambda2"])
                    if v is not None]
            if lams:
                lam2 = max(lams)
                row["lambda2"] = lam2
                if lam2 < 1.0:
                    row["lower_bound"], row["upper_bound"] = mixing.spectral_bounds(
                        lam2, n * m, config.epsilon)
            if system.dim <= LIMIT_MATRIX_CAP:
                row["t_mix"] = system_mixing_time(system, config.epsilon)
                report = structural_limit(system)
                if report.consensus is not None:
                    row["limit_consensus"] = report.consensus
    except (KronmixError, ValueError, OSError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def system_mixing_time(system, epsilon: float = 0.25, max_steps: int = 1_000_000) -> int:
    """Smallest k at which the worst simplex start is within epsilon of its limit.

    Tracks basis columns of the power W^k of the 2nm system operator against
    the limit operator, through `mixing._first_within`. The columns come from
    `mixing._start_rows` with an exact limit of 256: every column up to 256
    states, otherwise 64 drawn from Philox(SeedSequence(3)). Anchor rows
    never move and equal their limit, so only the top nm rows are compared.

    A top column (i, u) is never stepped nm-wide: it starts with no anchor
    mass, so by (L (x) R)^k = L^k (x) R^k its k-th iterate is
    (Lambda A)^k e_i (x) C^k e_u. For the t tracked top columns the scan
    carries an n x t block of (Lambda A)^k e_i and an m x t block of
    C^k e_u, and compares their outer products with the limit. An anchor
    column of an agent with lambda = 1 feeds nothing into the top rows, so
    it and its limit are zero there and it is dropped; only the anchor
    columns of stubborn agents step through `update`.
    """
    n, m = system.n, system.m
    nm = n * m
    cols = mixing._start_rows(system.dim, exact_limit=256)
    top = cols[cols < nm]
    anchor = cols[cols >= nm]
    anchor = anchor[system.lam[(anchor - nm) // m] < 1.0]
    target = limit_matrix(system, np.concatenate([top, anchor]))[:nm]
    top_target = target[:, :top.size].reshape(n, m, top.size)
    anchor_target = target[:, top.size:]
    anchors = mixing._basis(nm, anchor - nm)
    lam = system.lam[:, None]
    i, u = np.divmod(top, m)
    prod = np.empty((n, m, top.size))

    def step(state):
        a, c, z = state
        return (lam * (system.a.csr @ a), system.c.csr @ c,
                update(system, z, anchors) if anchor.size else z)

    def gap(state):
        a, c, z = state
        np.multiply(a[:, None, :], c[None, :, :], out=prod)
        np.subtract(prod, top_target, out=prod)
        np.abs(prod, out=prod)
        top_gap = prod.reshape(nm, top.size).sum(axis=0).max(initial=0.0)
        anchor_gap = np.abs(z - anchor_target).sum(axis=0).max(initial=0.0)
        return 0.5 * float(max(top_gap, anchor_gap))

    start = (mixing._basis(n, i), mixing._basis(m, u), np.zeros((nm, anchor.size)))
    return mixing._first_within(step, start, gap, epsilon, max_steps)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the sweep, write experiment.csv and one SVG per plotted metric.

    Points run one after another in sweep order, each on its own Philox
    stream SeedSequence((seed, index)). The graph whose size is not swept is
    resolved once for all points. Errors land in the row's error column. An
    SVG that this run does not redraw is removed, so none outlives its CSV.
    """
    values = config.sweep_values()
    try:
        fixed = resolve_graph(config.constraint if config.sweep == "n" else config.agent,
                              config.alpha)
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
