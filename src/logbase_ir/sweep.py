"""Log-base parameter sweep: evaluate every base on a grid and report.

The default grid is 0.1 to 100.0 in steps of 0.1 (1000 values). Grid values
are generated with Decimal arithmetic so the rendered one-decimal labels are
exact; base 1.0 is unusable (log undefined) and is recorded as skipped rather
than evaluated. The base only rescales the TF-IDF weights, so one ranker
serves every base: each query is ranked once, at base e, and a base re-scores
only the groups of near-tied documents whose order rounding could change
(``_plan``). Per-base summaries can be cached on disk keyed by a digest of the
inputs, so an interrupted sweep resumes instead of recomputing.
"""

import hashlib
import json
import math
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, field
from decimal import Decimal, Inexact, InvalidOperation, localcontext
from itertools import compress, count, repeat
from operator import itemgetter, lt, mul

from .collection_io import Qrels, RawQuery
from .evaluation import (
    DEFAULT_CUTOFF,
    EVAL_CSV_COLUMNS,
    EvalSummary,
    evaluate_rankings,
    format_summary_csv_row,
)
from .index import InvertedIndex, write_atomic
from .retrieval import RankedList, Ranker
from .textpipe import pipeline
from .weighting import WeightScheme

METRICS = ("map", "map_at_30")

SKIP_INVALID_BASE = "invalid-base"

MAX_GRID_VALUES = 1_000_000
_HALF_ULP = Decimal(2.0**-53)


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
        spec = f"{self.start}:{self.stop}:{self.step}"
        if float(self.start) == 0.0:
            raise ValueError(f"grid start {self.start} is 0 as a double")
        if math.isinf(float(self.stop)):
            raise ValueError(f"grid stop {self.stop} is infinite as a double")
        # every value, and the first one past the stop, must be exact in
        # Decimal's 28 digits, or values() could repeat a value without end
        with localcontext() as ctx:
            ctx.traps[Inexact] = True
            try:
                n = (self.stop - self.start) // self.step + 1
                self.start + n * self.step  # the value that ends values()
            except (Inexact, InvalidOperation):
                raise ValueError(
                    f"grid {spec} needs more than {ctx.prec} significant digits"
                ) from None
        if n > MAX_GRID_VALUES:
            raise ValueError(f"grid {spec} has {n} values, more than {MAX_GRID_VALUES}")
        # a value other than 1 within half an ulp of 1.0 would divide by
        # ln 1.0 = 0; only the two values around 1 can lie there
        if self.start <= 1 + _HALF_ULP and self.stop >= 1 - _HALF_ULP:
            near = int((1 - self.start) // self.step)
            for k in range(max(near - 1, 0), min(near + 3, int(n))):
                value = self.start + k * self.step
                if value != 1 and float(value) == 1.0:
                    raise ValueError(f"grid value {value} is 1.0 as a double")
        if n == 1 and self.start == 1:
            raise ValueError("grid holds no base but 1, whose logarithm is 0")

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
    # bases ranked in this run (not taken from the cache), the distinct
    # rankings to the cutoff among them, and the fragile groups of the plan
    ranked_bases: int = 0
    distinct_rankings: int = 0
    fragile_groups: int = 0


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


def _load_cache(cache_path: str, digest: str) -> dict[str, EvalSummary]:
    """The cached summaries of this digest, by base label.

    A line that is torn, not a JSON object, of another digest or ill-typed is
    skipped (its base is recomputed), and the file is rewritten atomically
    without such lines and with one line per base, the last.
    """
    try:
        with open(cache_path, "rb") as f:
            lines = f.read().splitlines(keepends=True)
    except FileNotFoundError:
        return {}
    cached: dict[str, EvalSummary] = {}
    kept: dict[str, bytes] = {}
    for line in lines:
        entry = _cache_entry(line, digest)
        if entry is not None:
            label, cached[label] = entry
            kept[label] = line.rstrip(b"\r\n") + b"\n"
    compacted = b"".join(kept.values())
    if compacted != b"".join(lines):
        write_atomic(cache_path, compacted)
    return cached


def _cache_entry(line: bytes, digest: str) -> tuple[str, EvalSummary] | None:
    """The (base label, summary) of a well-formed cache line of this digest."""
    try:
        entry = json.loads(line)
    except (ValueError, RecursionError):
        return None  # torn write from an interrupted run, or not UTF-8
    if not isinstance(entry, dict) or entry.get("digest") != digest:
        return None
    label, levels = entry.get("base"), entry.get("levels")
    metrics = (entry.get("map"), entry.get("map_at_30"))
    if not (type(label) is str and type(levels) is list and len(levels) == 11):
        return None
    if not all(type(v) is float for v in (*levels, *metrics)):
        return None
    return label, EvalSummary(tuple(levels), *metrics)


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


# Rounding bound (Higham 2002, ch. 3), with u = 2**-53: a document's base-b
# score fl(fl(c*c*dot) / fl(fl(|c|*qn) * fl(|c|*dn))) is A * (dot/dn) * (1 + θ)
# with |θ| <= γ_4 ≈ 4u and A the same for every document of a query; at base
# e (c = 1) |θ| <= γ_2. So two documents' scores at any base are in the ratio
# of their dot/dn within about 8u, and that is the ratio of their base-e
# scores within about 4u: a base-e gap above about 12u (16u with room to
# spare) keeps their order at every base. _SAFE_GAP asks for 32u. The bound
# holds while every product is a normal double; _SAFE_RANGE keeps far inside.
_SAFE_GAP = 1.0 - 32 * 2.0**-53
_SAFE_RANGE = (2.0**-480, 2.0**480)


def _plan(ranker: Ranker, accumulators: dict[int, tuple], norms: dict[int, float],
          cutoff: int) -> tuple[dict[int, RankedList], list, Callable[[float], bool]]:
    """Rank every query once at base e and find its fragile groups.

    Returns the base-e rankings, the fragile groups and a test of whether the
    bound holds at scale c = 1 / ln b. A fragile group, given as (query id,
    start, (query norm, dot of the members)), is two or more consecutive
    documents that no safe gap separates, that start before the cutoff and
    that do not tie exactly. Exact ties (bit-equal dot and norm) and zero
    scores tie at every base and keep their doc-id order.
    """
    rankings, fragile = {}, []
    # the non-zero dot products and norms (1.0 only widens their extremes)
    dots, lengths = [1.0], [1.0, *filter(None, norms.values())]
    smallest = 1.0  # the smallest score of a non-zero dot product
    for qid, acc in accumulators.items():
        query_norm, dot = acc
        ranked = rankings[qid] = ranker.rank(qid, acc, norms)
        scores = list(map(itemgetter(1), ranked.entries))
        nonzero = list(filter(None, dot.values()))
        if nonzero:
            dots += nonzero
            lengths.append(query_norm)
            smallest = min(smallest, scores[len(nonzero) - 1])  # zero dots rank last
        # a gap after position i is safe when score i+1 < score i * _SAFE_GAP
        safe = map(lt, scores[1:], map(mul, scores, repeat(_SAFE_GAP)))
        cuts = [0, *compress(count(1), safe), len(scores)]
        for start, stop in zip(cuts, cuts[1:]):
            if start >= cutoff:
                break
            if stop - start == 1:
                continue
            members = [d for d, _ in ranked.entries[start:stop]]
            # every zero dot product scores 0.0, whatever the norm
            if len({(dot[d], norms[d]) if dot[d] else 0.0 for d in members}) > 1:
                fragile.append((qid, start, (query_norm, {d: dot[d] for d in members})))
    lo, hi = _SAFE_RANGE
    dot_lo, dot_hi, length_lo, length_hi = min(dots), max(dots), min(lengths), max(lengths)

    def in_range(scale: float) -> bool:
        """Whether every c*c*dot and |c|*norm stays inside _SAFE_RANGE."""
        c2, m = scale * scale, abs(scale)
        return (lo <= c2 * dot_lo and c2 * dot_hi <= hi
                and lo <= m * length_lo and m * length_hi <= hi)

    # the base-e scores that the groups come from must obey the bound too
    base_e_in_range = smallest >= lo and in_range(1.0)
    return rankings, fragile, lambda scale: base_e_in_range and in_range(scale)


def _spliced(rankings: dict[int, RankedList], groups: list, orders: list
             ) -> dict[int, RankedList]:
    """The rankings with each re-scored group put in its new order."""
    entries = {qid: list(rl.entries) for qid, rl in rankings.items()}
    for (qid, start, _), order in zip(groups, orders):
        entries[qid][start:start + len(order)] = order
    return {qid: RankedList(qid, tuple(e)) for qid, e in entries.items()}


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
    evaluation). One base-e ranker scores and ranks each query once (see
    ``_plan``); each base re-scores only the fragile groups, and bases whose
    rankings agree to the cutoff share one evaluation.
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
    rankings, fragile, bound_holds = _plan(ranker, accumulators, norms, cutoff)
    # each query's ranking as one group, for a base where the bound may fail
    whole = [(qid, 0, acc) for qid, acc in accumulators.items()]
    result.fragile_groups = len(fragile)
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
            scale = 1.0 / math.log(base)
            groups = fragile if bound_holds(scale) else whole
            orders = [ranker.rank(qid, acc, norms, scale).entries for qid, _, acc in groups]
            # evaluation reads only the doc ids up to the cutoff; a base whose
            # every document is re-scored is keyed apart
            key = (groups is whole, tuple(
                tuple(map(itemgetter(0), order[:cutoff - start]))
                for (_, start, _), order in zip(groups, orders)
            ))
            if key not in memo:
                memo[key], _ = evaluate_rankings(
                    _spliced(rankings, groups, orders), qrels, cutoff, interpolation, pooling
                )
            summary = result.per_base[label] = memo[key]
            if cache_file:
                cache_file.write(_cache_line(digest, label, summary) + "\n")
                cache_file.flush()
    result.ranked_bases = len(todo)
    result.distinct_rankings = len(memo)
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
    write_report(path, "\n".join(lines) + "\n")


def emit_metric_curve(result: SweepResult, metric: str, path: str) -> None:
    """Two-column plot data: base, metric value."""
    lines = [f"base,{metric}"]
    for row in _sorted_rows(result):
        lines.append(f"{row.base},{_metric_value(row, metric)!r}")
    write_report(path, "\n".join(lines) + "\n")


def emit_level_curves(result: SweepResult, labels: list[str], path: str) -> None:
    """Twelve-column plot data: base plus the 11 level precisions."""
    lines = [",".join(EVAL_CSV_COLUMNS[:12])]
    for label in labels:
        summary = result.per_base[label]
        cells = [label] + [repr(v) for v in summary.levels]
        lines.append(",".join(cells))
    write_report(path, "\n".join(lines) + "\n")


def write_report(path: str, content: str) -> None:
    """Write a report file atomically (``index.write_atomic``)."""
    try:
        write_atomic(path, content.encode("utf-8"))
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e
