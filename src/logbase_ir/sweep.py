"""Log-base parameter sweep: evaluate every base on a grid and report.

A sweep takes its bases as labels and weighs each at ``float(label)``: the
labels of a grid spec (``grid_labels``), or the one label
``str(scheme.base)`` of a base that ``WeightScheme`` checked, as ``eval``
labels it. The default grid, ``DEFAULT_GRID``, is 0.1 to 100.0 in steps of
0.1 (1000 values). Grid values are generated with Decimal arithmetic so the
rendered one-decimal labels are exact; base 1.0 is unusable (log undefined)
and its label is recorded as skipped rather than evaluated.
The base only rescales the TF-IDF weights, which cosine cancels, so one
ranking serves every base: each query is ranked once, at base e
(``Ranker.plan``), and a base re-scores only the groups of near-tied
documents whose order rounding could change, with that base's weights
computed directly (``Ranker.settle``): the two calls of
``Ranker.rank_tokens``. The index gathers the members' term vectors once
and keeps them (``InvertedIndex.term_vectors``), so no base makes a pass
over the postings. Given a ``cache`` (the CLI always gives one), per-base
summaries are cached on disk keyed by what the sweep was given, not by the
index it holds, so an interrupted sweep resumes instead of recomputing,
and one whose every base is cached ranks nothing.
"""

import hashlib
import json
import math
from contextlib import nullcontext
from decimal import Decimal, Inexact, InvalidOperation, localcontext
from operator import itemgetter

from . import textpipe
from .collection_io import Qrels
from .evaluation import (
    DEFAULT_CUTOFF,
    EVAL_CSV_COLUMNS,
    EvalSummary,
    evaluate_rankings,
    summary_csv,
)
from .index import InvertedIndex, write_atomic, write_report
from .retrieval import Ranker, group_members
from .weighting import WeightScheme

METRICS = ("map", "map_at_30")

# enters the resume cache's digest: bump it with any change that moves a
# summary, so that a resumed sweep never mixes two versions' summaries
CACHE_VERSION = 1

DEFAULT_GRID = "0.1:100.0:0.1"
MAX_GRID_VALUES = 1_000_000


def grid_labels(spec: str) -> list[str]:
    """Every value of the START:STOP:STEP grid ``spec``, ascending, as its
    exact Decimal label. A spec whose values are not all usable log bases
    but 1 (or would be too many) is refused with ``ValueError``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be START:STOP:STEP, got {spec!r}")
    try:
        start, stop, step = (Decimal(p) for p in parts)
    except InvalidOperation:
        raise ValueError(f"non-numeric grid spec {spec!r}") from None
    if not all(v.is_finite() for v in (start, stop, step)):
        raise ValueError(f"grid values must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if start <= 0:
        raise ValueError(f"grid start must be positive, got {start}")
    if stop < start:
        raise ValueError(f"grid stop {stop} below start {start}")
    shown = f"{start}:{stop}:{step}"
    if float(start) == 0.0:
        raise ValueError(f"grid start {start} is 0 as a double")
    if math.isinf(float(stop)):
        raise ValueError(f"grid stop {stop} is infinite as a double")
    # every value, and the first one past the stop, must be exact in
    # Decimal's 28 digits, so that each label is its value
    with localcontext() as ctx:
        ctx.traps[Inexact] = True
        try:
            n = (stop - start) // step + 1
            start + n * step
        except (Inexact, InvalidOperation):
            raise ValueError(
                f"grid {shown} needs more than {ctx.prec} significant digits"
            ) from None
    if n > MAX_GRID_VALUES:
        raise ValueError(f"grid {shown} has {n} values, more than {MAX_GRID_VALUES}")
    if n == 1 and start == 1:
        raise ValueError("grid holds no base but 1, whose logarithm is 0")
    labels = [str(start + k * step) for k in range(int(n))]
    # a value other than 1 that rounds to 1.0 would divide by ln 1.0 = 0
    for label in labels:
        if float(label) == 1.0 and Decimal(label) != 1:
            raise ValueError(f"grid value {label} is 1.0 as a double")
    return labels


class SweepResult:
    def __init__(self):
        # base label -> summary, in ascending base order
        self.per_base: dict[str, EvalSummary] = {}
        # labels whose double is 1.0, unusable as a log base
        self.skipped: list[str] = []
        # bases ranked in this run (not taken from the cache), the distinct
        # rankings to the cutoff among them, and the fragile groups of the plan
        self.ranked_bases = 0
        self.distinct_rankings = 0
        self.fragile_groups = 0


# a report row: base label and its summary
Row = tuple[str, EvalSummary]


def _digest(inputs: dict, cutoff: int) -> str:
    """sha256 of what a sweep was given: ``inputs``, the caller's
    description of its inputs as JSON values, and the cutoff, with
    ``CACHE_VERSION`` and ``textpipe.PIPELINE_VERSION``, the versions of the
    code that turns them into summaries."""
    payload = json.dumps(
        {
            "inputs": inputs,
            "cutoff": cutoff,
            "cache_version": CACHE_VERSION,
            "pipeline_version": textpipe.PIPELINE_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    except OSError as e:
        raise OSError(f"cannot read {cache_path}: {e.strerror or e}") from e
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
    cache: tuple[str, dict] | None = None,
) -> SweepResult:
    """Evaluate the judged queries' tokens, ``{query_id: tokens}`` as
    ``Ranker.rank_tokens`` takes them, at every base of ``labels``: a grid's
    ``grid_labels``, or ``[str(scheme.base)]`` for one checked base,
    the label ``eval`` writes. Each base is weighed at ``float(label)``; a
    label whose double is 1.0 is recorded as skipped.

    ``evaluate_rankings`` refuses empty qrels and qrels naming a query not
    passed. Unless the cache holds every base, one base-e ranker plans once
    (``Ranker.plan``): it ranks each query and finds the near-tie groups
    before the cutoff. Of these, the fragile ones are those whose members'
    term vectors, asked of the index in one call
    (``InvertedIndex.term_vectors``), are not all equal; identical documents
    score alike in every arithmetic and keep their doc-id order. Each base
    settles only the fragile groups (``Ranker.settle``), from the vectors
    the index kept, so every base ranks as ``Ranker.rank_tokens`` does.
    Each base is scored by the paper's 11-level bucket means
    (``evaluate_rankings``), and bases whose rankings agree to the cutoff
    share one evaluation.

    ``cache`` is ``(path, inputs)``: a line per base in the file at ``path``,
    keyed by ``_digest(inputs, cutoff)``, where ``inputs`` stands for the
    index, tokens and qrels, and must differ wherever these could.
    """
    result = SweepResult()
    cached: dict[str, EvalSummary] = {}
    cache_path, inputs = cache or (None, None)
    if cache_path is not None:
        digest = _digest(inputs, cutoff)
        cached = _load_cache(cache_path, digest)
    bases = [(label, float(label)) for label in labels]
    fragile: dict[int, list[tuple[int, int]]] = {}
    if any(base != 1.0 and label not in cached for label, base in bases):
        rankings, groups = Ranker(index, WeightScheme(math.e)).plan(query_tokens, cutoff)
        vectors = index.term_vectors(group_members(rankings, groups))
        for qid, query_groups in groups.items():
            entries = rankings[qid].entries
            for start, stop in query_groups:
                first = vectors[entries[start][0]]
                if any(vectors[d] != first for d, _ in entries[start + 1:stop]):
                    fragile.setdefault(qid, []).append((start, stop))
    result.fragile_groups = sum(map(len, fragile.values()))
    memo: dict[tuple, EvalSummary] = {}
    try:
        with (nullcontext() if cache_path is None
              else open(cache_path, "a", encoding="utf-8")) as cache_file:
            for label, base in bases:
                if base == 1.0:
                    result.skipped.append(label)
                    continue
                if label in cached:
                    result.per_base[label] = cached[label]
                    continue
                settled = rankings
                if fragile:
                    ranker = Ranker(index, WeightScheme(base))
                    settled = ranker.settle(query_tokens, rankings, fragile)
                # evaluation reads only the doc ids up to the cutoff
                key = tuple(
                    tuple(map(itemgetter(0), settled[qid].entries[start:min(stop, cutoff)]))
                    for qid, groups in fragile.items() for start, stop in groups
                )
                if key not in memo:
                    memo[key], _ = evaluate_rankings(settled, qrels, cutoff)
                summary = result.per_base[label] = memo[key]
                result.ranked_bases += 1
                if cache_file:
                    cache_file.write(_cache_line(digest, label, summary) + "\n")
                    cache_file.flush()
    except OSError as e:  # the cache's open, write or flush
        raise OSError(f"cannot write {cache_path}: {e.strerror or e}") from e
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
