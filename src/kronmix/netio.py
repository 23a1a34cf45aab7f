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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import mixing
from .beliefs import assemble, converges, update
from .errors import EmptyGraph, FailedToConverge, KronmixError, ParseError, SpecError
from .generators import TopologySpec, generate, lazify
from .graphs import DirectedGraph, scc_decompose
from .limits import limit_matrix, structural_limit
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
    graph = DirectedGraph(ids.size, edges.reshape(-1, 2), directed=directed,
                          meta={"id_map": ids, "path": path})
    return graph


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
    lines += ["", "Optionally record sha256 sums under agent.sha256 / constraint.sha256",
              "in the experiment config; they are verified before parsing."]
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
    max_system_dim: int = 4000  # t_mix and limits are desk-scale metrics

    def sweep_values(self) -> list[int]:
        if self.sweep not in ("n", "m"):
            raise SpecError(f"sweep must be 'n' or 'm', got {self.sweep!r}")
        if self.sweep_stride <= 0 or self.sweep_stop < self.sweep_start:
            raise SpecError("empty sweep range")
        if not 0 < self.epsilon < 1:
            raise SpecError(f"epsilon must be in (0, 1), got {self.epsilon}")
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


def _spec_from_mapping(mapping: dict[str, str], prefix: str) -> TopologySpec | str:
    path = mapping.get(f"{prefix}.path")
    if path:
        return path
    family = mapping.get(f"{prefix}.family")
    if not family:
        raise SpecError(f"config is missing {prefix}.family or {prefix}.path")

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
        directed=pick("directed", lambda s: s.lower() in ("1", "true", "yes"), False),
    )


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat keys (file or CLI-merged)."""
    def pick(key, cast, default):
        raw = mapping.get(key)
        return default if raw in (None, "") else cast(raw)

    cfg = ExperimentConfig(
        agent=_spec_from_mapping(mapping, "agent"),
        constraint=_spec_from_mapping(mapping, "constraint"),
        sweep=pick("sweep", str, "n"),
        sweep_start=pick("sweep.start", int, 10),
        sweep_stop=pick("sweep.stop", int, 50),
        sweep_stride=pick("sweep.stride", int, 10),
        epsilon=pick("epsilon", float, 0.25),
        seed=pick("seed", int, 0),
        trials=pick("trials", int, 200),
        lambda_policy=pick("lambda", str, "oblivious"),
        alpha=pick("alpha", float, 0.5),
        outdir=pick("outdir", str, "experiment-out"),
    )
    cfg.sweep_values()  # validate eagerly: bad configs are exit-code-2 errors
    return cfg


def _thread_count() -> int:
    raw = os.environ.get("KRONMIX_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise SpecError(f"KRONMIX_THREADS={raw!r} is not an integer") from None
    return min(4, os.cpu_count() or 1)


# -- sweep execution ---------------------------------------------------------

def _resolve_graph(source: TopologySpec | str, size: int | None,
                   alpha: float, sha256: str | None = None) -> DirectedGraph:
    if isinstance(source, str):
        if size is not None:
            raise SpecError("cannot sweep the size of a dataset graph")
        if sha256 and not verify_checksum(source, sha256):
            raise ParseError(0, f"checksum mismatch for {source}")
        graph = largest_scc(load_edgelist(source))
    else:
        spec = source if size is None else replace(source, n=size)
        graph = generate(spec)
    return lazify(graph, alpha) if alpha > 0 else graph


def _lambda_vector(policy: str, n: int, rng) -> np.ndarray:
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


def _run_point(config: ExperimentConfig, index: int, value: int) -> dict:
    row = {"sweep_value": value, "n": "", "m": "", "converges": "", "t_mix": "",
           "lambda2": "", "lower_bound": "", "upper_bound": "", "coupling_L": "",
           "coupling_se": "", "absorbing_H": "", "theorem_bound": "",
           "limit_consensus": "", "error": ""}
    try:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((config.seed, index))))
        agent_graph = _resolve_graph(config.agent,
                                     value if config.sweep == "n" else None,
                                     config.alpha)
        constraint_graph = _resolve_graph(config.constraint,
                                          value if config.sweep == "m" else None,
                                          config.alpha)
        a = equal_weight_matrix(agent_graph)
        c = equal_weight_matrix(constraint_graph)
        n, m = a.n, c.n
        row["n"], row["m"] = n, m
        lam = _lambda_vector(config.lambda_policy, n, rng)
        x0 = rng.random((n, m))
        system = assemble(a, c, lam, x0)
        verdict = converges(system)
        row["converges"] = "true" if verdict.converges else "false"

        if verdict.converges:
            # theorem-style metrics: agent side restricted to oblivious agents
            nodes = np.asarray(sorted(verdict.oblivious_agents), dtype=np.int64)
            if nodes.size:
                a_obl = StochasticMatrix(a.minor(nodes), renormalize=True)
                g_metrics = _factor_metrics(a_obl, config.trials, rng)
            else:
                g_metrics = {"L": 0.0, "L_se": 0.0, "H": 0.0, "lambda2": None}
            t_metrics = _factor_metrics(c, config.trials, rng)
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
            if 2 * n * m <= config.max_system_dim:
                row["t_mix"] = system_mixing_time(system, config.epsilon)
                report = structural_limit(system)
                if report.consensus is not None:
                    row["limit_consensus"] = report.consensus
    except KronmixError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    except (ValueError, OSError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def system_mixing_time(system, epsilon: float = 0.25, max_steps: int = 1_000_000,
                       starts: int = 64) -> int:
    """Smallest k at which the worst simplex start is within epsilon of its limit.

    Tracks sampled basis columns of the system operator power against the
    limit operator (exact when the state space is small), stepped blockwise;
    anchor rows never move and equal their limit, so they add no distance.
    """
    dim, nm = system.dim, system.n * system.m
    if dim <= 256 or starts >= dim:
        cols = np.arange(dim)
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
        cols = rng.choice(dim, size=starts, replace=False)
    target = limit_matrix(system, cols)[:nm]
    cur = np.zeros((dim, cols.size))
    cur[cols, np.arange(cols.size)] = 1.0
    cur, anchors = cur[:nm], cur[nm:]
    for k in range(max_steps + 1):
        if 0.5 * np.abs(cur - target).sum(axis=0).max() <= epsilon:
            return k
        cur = update(system, cur, anchors)
    raise FailedToConverge(f"distance to limit above {epsilon} after {max_steps} steps")


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the sweep, write experiment.csv and one SVG per plotted metric.

    Rows are computed in parallel (KRONMIX_THREADS caps the pool) but written
    in sweep order; per-point Philox streams keep results reproducible
    regardless of the worker count. Errors land in the row's error column.
    """
    values = config.sweep_values()
    workers = min(_thread_count(), len(values))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_point, config, i, v)
                       for i, v in enumerate(values)]
            rows = [f.result() for f in futures]
    else:
        rows = [_run_point(config, i, v) for i, v in enumerate(values)]

    os.makedirs(config.outdir, exist_ok=True)
    write_csv(os.path.join(config.outdir, "experiment.csv"), rows)
    for metric in ("t_mix", "coupling_L", "absorbing_H", "theorem_bound"):
        xs, ys = [], []
        for row in rows:
            if row[metric] != "" and row["error"] == "":
                xs.append(float(row["sweep_value"]))
                ys.append(float(row[metric]))
        if len(xs) >= 2 and min(ys) > 0:
            svg_loglog(os.path.join(config.outdir, f"{metric}.svg"), xs, ys,
                       xlabel=config.sweep, ylabel=metric,
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
