"""Log-base parameter sweep: evaluate every base on a grid and report.

The default grid is 0.1 to 100.0 in steps of 0.1 (1000 values). Grid values
are generated with Decimal arithmetic so the rendered one-decimal labels are
exact; base 1.0 is unusable (log undefined) and is recorded as skipped rather
than evaluated. The base only rescales the TF-IDF weights, so one ranker
serves every base. Per-base summaries can be cached on disk keyed by a
digest of the inputs, so an interrupted sweep resumes instead of recomputing.
"""

import hashlib
import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from operator import itemgetter

from .collection_io import Qrels, RawQuery
from .evaluation import (
    DEFAULT_CUTOFF,
    EVAL_CSV_COLUMNS,
    EvalSummary,
    evaluate_rankings,
    format_summary_csv_row,
)
from .index import InvertedIndex
from .retrieval import RankedList, Ranker
from .textpipe import pipeline
from .weighting import WeightScheme

METRICS = ("map", "map_at_30")

SKIP_INVALID_BASE = "invalid-base"


@dataclass(frozen=True)
class BaseGrid:
    """Arithmetic grid of log bases, generated exactly via Decimal steps."""

    start: Decimal
    stop: Decimal
    step: Decimal

    def __post_init__(self):
        if not all(v.is_finite() for v in (self.start, self.stop, self.step)):
            raise ValueError(
                f"grid values must be finite, got {self.start}:{self.stop}:{self.step}"
            )
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.start <= 0:
            raise ValueError(f"grid start must be positive, got {self.start}")
        if self.stop < self.start:
            raise ValueError(f"grid stop {self.stop} below start {self.start}")

    @classmethod
    def default(cls) -> "BaseGrid":
        return cls(Decimal("0.1"), Decimal("100.0"), Decimal("0.1"))

    @classmethod
    def single(cls, base: Decimal) -> "BaseGrid":
        return cls(base, base, Decimal("0.1"))

    @classmethod
    def parse(cls, spec: str) -> "BaseGrid":
        """Parse a START:STOP:STEP grid specification."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be START:STOP:STEP, got {spec!r}")
        try:
            start, stop, step = (Decimal(p) for p in parts)
        except InvalidOperation:
            raise ValueError(f"non-numeric grid spec {spec!r}") from None
        return cls(start, stop, step)

    def values(self) -> list[Decimal]:
        out = []
        k = 0
        while True:
            v = self.start + k * self.step
            if v > self.stop:
                return out
            out.append(v)
            k += 1

    def labels(self) -> list[str]:
        return [str(v) for v in self.values()]


@dataclass
class SweepResult:
    collection_name: str
    grid: BaseGrid
    per_base: dict[str, EvalSummary] = field(default_factory=dict)
    skipped: list[tuple[str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ReportRow:
    base: str
    levels: tuple[float, ...]
    map: float
    map_at_30: float


def _digest(index: InvertedIndex, query_tokens, qrels, cutoff, interpolation, pooling) -> str:
    """sha256 of the index's snapshot bytes, then the queries, qrels and options."""
    h = hashlib.sha256()
    for part in index.snapshot_parts():
        h.update(part)
    payload = json.dumps(
        {
            "queries": {str(q): t for q, t in sorted(query_tokens.items())},
            "qrels": {str(q): sorted(d) for q, d in sorted(qrels.items())},
            "cutoff": cutoff,
            "interpolation": interpolation,
            "pooling": pooling,
        },
        sort_keys=True,
    )
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


def base_rankings(
    ranker: Ranker, accumulators: dict[int, tuple], norms: dict[int, float], base: float
) -> dict[int, RankedList]:
    """Every query's ranking at log base ``base``.

    ``ranker`` weighs at base e, ``accumulators`` are its per-query
    ``accumulate`` results and ``norms`` its ``doc_norms`` of every document
    they reach; log_b x = ln x / ln b, so base b rescales every
    weight by 1 / ln b. Scores and order are computed afresh, so a tie that
    rounding breaks differently at some base still shows up there.
    """
    scale = 1.0 / math.log(base)
    return {qid: ranker.rank(qid, acc, norms, scale) for qid, acc in accumulators.items()}


def _load_cache(cache_path: str, digest: str) -> dict[str, EvalSummary]:
    cached: dict[str, EvalSummary] = {}
    try:
        f = open(cache_path, encoding="utf-8")
    except FileNotFoundError:
        return cached
    with f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from an interrupted run
            if entry.get("digest") != digest:
                continue
            cached[entry["base"]] = EvalSummary(
                levels=tuple(entry["levels"]),
                map=entry["map"],
                map_at_30=entry["map_at_30"],
            )
    return cached


def _cache_line(digest: str, label: str, s: EvalSummary) -> str:
    return json.dumps(
        {
            "digest": digest,
            "base": label,
            "levels": list(s.levels),
            "map": s.map,
            "map_at_30": s.map_at_30,
        }
    )


def run_sweep(
    index: InvertedIndex,
    queries: list[RawQuery],
    qrels: Qrels,
    grid: BaseGrid | None = None,
    *,
    stoplist: frozenset[str] | None = None,
    cutoff: int = DEFAULT_CUTOFF,
    interpolation: str = "paper",
    pooling: str = "per_query",
    cache_path: str | None = None,
    collection_name: str = "",
) -> SweepResult:
    """Evaluate every grid base; base 1.0 is recorded as skipped.

    Every qrels query_id must exist in the query list (checked before any
    evaluation). One base-e ranker scores each query once; each base then
    rescales, sorts and evaluates, and bases whose rankings agree share one
    evaluation.
    """
    if grid is None:
        grid = BaseGrid.default()
    query_ids = {q.query_id for q in queries}
    orphans = sorted(q for q in qrels if q not in query_ids)
    if orphans:
        raise ValueError(f"qrels reference unknown query ids {orphans}")
    if not qrels:
        raise ValueError("no judged queries to evaluate")

    query_tokens = {
        q.query_id: pipeline(q.text, stoplist) for q in queries if q.query_id in qrels
    }

    result = SweepResult(collection_name=collection_name, grid=grid)
    todo: list[tuple[str, float]] = []
    for value in grid.values():
        label = str(value)
        if value == 1:
            result.skipped.append((label, SKIP_INVALID_BASE))
        else:
            todo.append((label, float(value)))

    ranker = Ranker(index, WeightScheme(math.e))
    accumulators = {qid: ranker.accumulate(tokens) for qid, tokens in query_tokens.items()}
    # once for the whole grid: norms rescale with the base like every weight
    norms = ranker.doc_norms(set().union(*(dot for _, dot in accumulators.values())))
    # evaluation reads only the doc ids in the top ``cutoff`` of each ranking
    memo: dict[tuple, EvalSummary] = {}
    with ExitStack() as stack:
        cache_file = None
        if cache_path is not None:
            digest = _digest(index, query_tokens, qrels, cutoff, interpolation, pooling)
            cached = _load_cache(cache_path, digest)
            for label, _ in todo:
                if label in cached:
                    result.per_base[label] = cached[label]
            todo = [(label, base) for label, base in todo if label not in cached]
            cache_file = stack.enter_context(open(cache_path, "a", encoding="utf-8"))

        for label, base in todo:
            rankings = base_rankings(ranker, accumulators, norms, base)
            key = tuple(
                tuple(map(itemgetter(0), rl.entries[:cutoff])) for rl in rankings.values()
            )
            if key not in memo:
                memo[key], _ = evaluate_rankings(
                    rankings, qrels, cutoff, interpolation, pooling
                )
            summary = result.per_base[label] = memo[key]
            if cache_file:
                cache_file.write(_cache_line(digest, label, summary) + "\n")
                cache_file.flush()
    return result


def _sorted_rows(result: SweepResult) -> list[ReportRow]:
    rows = [
        ReportRow(label, s.levels, s.map, s.map_at_30)
        for label, s in result.per_base.items()
    ]
    rows.sort(key=lambda r: Decimal(r.base))
    return rows


def _metric_value(row: ReportRow, metric: str) -> float:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return row.map if metric == "map" else row.map_at_30


def top_k_report(result: SweepResult, metric: str, k: int) -> list[ReportRow]:
    """The k best bases under a metric; ties go to the smaller base."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = _sorted_rows(result)
    rows.sort(key=lambda r: (-_metric_value(r, metric), Decimal(r.base)))
    return rows[:k]


def best_standard_worst(result: SweepResult, metric: str) -> list[ReportRow]:
    """Three rows: the best base, base 10, and the worst base."""
    rows = _sorted_rows(result)
    standard = [r for r in rows if Decimal(r.base) == 10]
    if not standard:
        raise ValueError("base 10 is not present in the sweep result")
    best = min(rows, key=lambda r: (-_metric_value(r, metric), Decimal(r.base)))
    worst = min(rows, key=lambda r: (_metric_value(r, metric), Decimal(r.base)))
    return [best, standard[0], worst]


def render_table(rows: list[ReportRow], metric: str) -> str:
    """Aligned plain-text table: LOG, the 11 level precisions, the metric."""
    header_metric = {"map": "MAP", "map_at_30": "MAP@30"}[metric]
    headers = ["LOG"] + [f"{k / 10:.1f}" for k in range(11)] + [header_metric]
    table = [headers]
    for row in rows:
        cells = [row.base]
        cells += [f"{v:.4f}" for v in row.levels]
        cells.append(f"{_metric_value(row, metric):.6f}")
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in table]
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str) -> None:
    """One CSV row per evaluated base, ascending; byte-stable across reruns."""
    lines = [",".join(EVAL_CSV_COLUMNS)]
    for row in _sorted_rows(result):
        summary = result.per_base[row.base]
        lines.append(format_summary_csv_row(row.base, summary))
    _write_text(path, "\n".join(lines) + "\n")


def emit_metric_curve(result: SweepResult, metric: str, path: str) -> None:
    """Two-column plot data: base, metric value."""
    lines = [f"base,{metric}"]
    for row in _sorted_rows(result):
        lines.append(f"{row.base},{_metric_value(row, metric)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def emit_level_curves(result: SweepResult, labels: list[str], path: str) -> None:
    """Twelve-column plot data: base plus the 11 level precisions."""
    lines = [",".join(EVAL_CSV_COLUMNS[:12])]
    for label in labels:
        summary = result.per_base[label]
        cells = [label] + [repr(v) for v in summary.levels]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(content)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
