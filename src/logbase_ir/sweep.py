"""Log-base parameter sweep: evaluate every base on a grid and report.

A sweep takes its bases as labels and weighs each at ``float(label)``: the
labels of a grid, or the one label ``str(scheme.base)`` of a base that
``WeightScheme`` checked, as ``eval`` labels it. The default grid is 0.1 to
100.0 in steps of 0.1 (1000 values). Grid values are generated with Decimal
arithmetic so the rendered one-decimal labels are exact; base 1.0 is
unusable (log undefined) and is recorded as skipped rather than evaluated.
The base only rescales the TF-IDF weights, which cosine cancels, so one
ranking serves every base: each query is ranked once, at base e
(``Ranker.plan``), and a base re-scores only the groups of near-tied
documents whose order rounding could change, with that base's weights
computed directly from term vectors gathered once (``Ranker.settle``): the
two calls of ``Ranker.rank_tokens``. Per-base summaries can be cached on
disk keyed by a digest of the inputs, so an interrupted sweep resumes
instead of recomputing, and one whose every base is cached ranks nothing.
"""

import hashlib
import json
import math
import sys
from array import array
from contextlib import nullcontext
from decimal import Decimal, Inexact, InvalidOperation, localcontext
from itertools import chain
from operator import itemgetter

from .collection_io import Qrels
from .evaluation import (
    DEFAULT_CUTOFF,
    EVAL_CSV_COLUMNS,
    EvalSummary,
    evaluate_rankings,
    summary_csv,
)
from .index import InvertedIndex, write_atomic, write_report
from .retrieval import Ranker
from .weighting import WeightScheme

METRICS = ("map", "map_at_30")

SKIP_INVALID_BASE = "invalid-base"

# enters the resume cache's digest: bump it with any change that moves a
# summary, so that a resumed sweep never mixes two versions' summaries
CACHE_VERSION = 1

MAX_GRID_VALUES = 1_000_000
_HALF_ULP = Decimal(2.0**-53)


class BaseGrid:
    """Arithmetic grid of log bases, generated exactly via Decimal steps."""

    __slots__ = ("start", "stop", "step", "n")

    def __init__(self, start: Decimal, stop: Decimal, step: Decimal):
        self.start, self.stop, self.step = start, stop, step
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
        # Decimal's 28 digits, so that each label is its value
        with localcontext() as ctx:
            ctx.traps[Inexact] = True
            try:
                n = (self.stop - self.start) // self.step + 1
                self.start + n * self.step
            except (Inexact, InvalidOperation):
                raise ValueError(
                    f"grid {spec} needs more than {ctx.prec} significant digits"
                ) from None
        self.n = int(n)
        if self.n > MAX_GRID_VALUES:
            raise ValueError(f"grid {spec} has {n} values, more than {MAX_GRID_VALUES}")
        # a value other than 1 within half an ulp of 1.0 would divide by
        # ln 1.0 = 0; only the two values around 1 can lie there
        if self.start <= 1 + _HALF_ULP and self.stop >= 1 - _HALF_ULP:
            near = int((1 - self.start) // self.step)
            for k in range(max(near - 1, 0), min(near + 3, self.n)):
                value = self.start + k * self.step
                if value != 1 and float(value) == 1.0:
                    raise ValueError(f"grid value {value} is 1.0 as a double")
        if self.n == 1 and self.start == 1:
            raise ValueError("grid holds no base but 1, whose logarithm is 0")

    @classmethod
    def default(cls) -> "BaseGrid":
        return cls(Decimal("0.1"), Decimal("100.0"), Decimal("0.1"))

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

    def labels(self) -> list[str]:
        """Every value of the grid, ascending, as its exact Decimal label."""
        return [str(self.start + k * self.step) for k in range(self.n)]


class SweepResult:
    def __init__(self):
        # base label -> summary, in ascending base order
        self.per_base: dict[str, EvalSummary] = {}
        self.skipped: list[tuple[str, str]] = []
        # bases ranked in this run (not taken from the cache), the distinct
        # rankings to the cutoff among them, and the fragile groups of the plan
        self.ranked_bases = 0
        self.distinct_rankings = 0
        self.fragile_groups = 0


# a report row: base label and its summary
Row = tuple[str, EvalSummary]


def _digest(index: InvertedIndex, query_tokens, qrels, cutoff, interpolation, pooling) -> str:
    """sha256 of the index as it is held, then the queries, qrels, options
    and ``CACHE_VERSION``. The index enters with nothing encoded: its
    stoplist fingerprint, terms and df, each term's doc ids and tfs, then the
    doc ids and norms, each column in little-endian byte order, so a built
    index and a loaded copy of it give one digest."""
    entries = index.dictionary.values()
    h = hashlib.sha256(json.dumps(
        [index.stoplist_sha256, list(index.dictionary), [len(ids) for ids, _ in entries]]
    ).encode("utf-8"))
    for column in (*chain.from_iterable(entries), array("q", index.norms),
                   array("d", index.norms.values())):
        if sys.byteorder == "big":
            column = array(column.typecode, column)
            column.byteswap()
        h.update(column)
    payload = json.dumps(
        {
            "queries": {str(q): t for q, t in sorted(query_tokens.items())},
            "qrels": {str(q): sorted(d) for q, d in sorted(qrels.items())},
            "cache_version": CACHE_VERSION,
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

    A line that is torn, not a JSON object, of another digest, ill-typed or
    holding a value outside [0, 1] (NaN included) is skipped (its base is
    recomputed), and the file is rewritten atomically without such lines and
    with one line per base, the last.
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
    # a precision is a float in [0, 1]: NaN and out-of-range values fail
    if not all(type(v) is float and 0.0 <= v <= 1.0 for v in (*levels, *metrics)):
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


def run_sweep(
    index: InvertedIndex,
    query_tokens: dict[int, list[str]],
    qrels: Qrels,
    labels: list[str],
    *,
    cutoff: int = DEFAULT_CUTOFF,
    interpolation: str = "paper",
    pooling: str = "per_query",
    cache_path: str | None = None,
) -> SweepResult:
    """Evaluate the judged queries' tokens, ``{query_id: tokens}`` as
    ``Ranker.rank_tokens`` takes them, at every base of ``labels``: a grid's
    ``BaseGrid.labels()``, or ``[str(scheme.base)]`` for one checked base,
    the label ``eval`` writes. Each base is weighed at ``float(label)``; a
    label whose double is 1.0 is recorded as skipped.

    ``evaluate_rankings`` refuses empty qrels and qrels naming a query not
    passed. Unless the cache holds every base, one base-e ranker plans once
    (``Ranker.plan``): it ranks each query and finds the near-tie groups
    before the cutoff. Of these, the fragile ones are those whose members'
    term vectors are not all equal; identical documents score alike in every
    arithmetic and keep their doc-id order. Each base settles only the
    fragile groups (``Ranker.settle``), so every base ranks as
    ``Ranker.rank_tokens`` does. Bases whose rankings agree to the cutoff
    share one evaluation.
    """
    result = SweepResult()
    cached: dict[str, EvalSummary] = {}
    if cache_path is not None:
        digest = _digest(index, query_tokens, qrels, cutoff, interpolation, pooling)
        cached = _load_cache(cache_path, digest)
    bases = [(label, float(label)) for label in labels]
    fragile: dict[int, list[tuple[int, int]]] = {}
    if any(base != 1.0 and label not in cached for label, base in bases):
        rankings, groups, vectors = Ranker(index, WeightScheme(math.e)).plan(query_tokens, cutoff)
        for qid, query_groups in groups.items():
            entries = rankings[qid].entries
            for start, stop in query_groups:
                first = vectors[entries[start][0]]
                if any(vectors[d] != first for d, _ in entries[start + 1:stop]):
                    fragile.setdefault(qid, []).append((start, stop))
    result.fragile_groups = sum(map(len, fragile.values()))
    memo: dict[tuple, EvalSummary] = {}
    with (nullcontext() if cache_path is None
          else open(cache_path, "a", encoding="utf-8")) as cache_file:
        for label, base in bases:
            if base == 1.0:
                result.skipped.append((label, SKIP_INVALID_BASE))
                continue
            if label in cached:
                result.per_base[label] = cached[label]
                continue
            settled = rankings
            if fragile:
                ranker = Ranker(index, WeightScheme(base))
                settled = ranker.settle(query_tokens, rankings, fragile, vectors)
            # evaluation reads only the doc ids up to the cutoff
            key = tuple(
                tuple(map(itemgetter(0), settled[qid].entries[start:min(stop, cutoff)]))
                for qid, groups in fragile.items() for start, stop in groups
            )
            if key not in memo:
                memo[key], _ = evaluate_rankings(settled, qrels, cutoff, interpolation, pooling)
            summary = result.per_base[label] = memo[key]
            result.ranked_bases += 1
            if cache_file:
                cache_file.write(_cache_line(digest, label, summary) + "\n")
                cache_file.flush()
    result.distinct_rankings = len(memo)
    return result


def _metric(metric: str):
    """The key that reads a metric off a report row."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return lambda row: getattr(row[1], metric)


def top_k_report(result: SweepResult, metric: str, k: int) -> list[Row]:
    """The k best bases under a metric; ties go to the smaller base."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # a stable sort of rows in ascending base order
    return sorted(result.per_base.items(), key=_metric(metric), reverse=True)[:k]


def best_standard_worst(result: SweepResult, metric: str) -> list[Row]:
    """Three rows: the best base, base 10, and the worst base; ties go to
    the smaller base."""
    rows = list(result.per_base.items())
    standard = [row for row in rows if Decimal(row[0]) == 10]
    if not standard:
        raise ValueError("base 10 is not present in the sweep result")
    key = _metric(metric)
    return [max(rows, key=key), standard[0], min(rows, key=key)]


def render_table(rows: list[Row], metric: str) -> str:
    """Aligned plain-text table: LOG, the 11 level precisions, the metric."""
    header_metric = {"map": "MAP", "map_at_30": "MAP@30"}[metric]
    headers = ["LOG"] + [f"{k / 10:.1f}" for k in range(11)] + [header_metric]
    key = _metric(metric)
    table = [headers]
    for row in rows:
        label, summary = row
        table.append([label, *(f"{v:.4f}" for v in summary.levels), f"{key(row):.6f}"])
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in table]
    return "\n".join(lines) + "\n"


def emit_csv(result: SweepResult, path: str) -> None:
    """One CSV row per evaluated base, ascending; byte-stable across reruns."""
    write_report(path, summary_csv(result.per_base.items()))


def emit_metric_curve(result: SweepResult, metric: str, path: str) -> None:
    """Two-column plot data: base, metric value."""
    _metric(metric)
    write_report(path, summary_csv(result.per_base.items(), ("base", metric)))


def emit_level_curves(result: SweepResult, labels: list[str], path: str) -> None:
    """Twelve-column plot data: base plus the 11 level precisions."""
    rows = [(label, result.per_base[label]) for label in labels]
    write_report(path, summary_csv(rows, EVAL_CSV_COLUMNS[:12]))
