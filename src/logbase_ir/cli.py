"""Command-line interface.

Subcommands: ``index``, ``search``, ``eval``, ``sweep``, ``stats``. Options
resolve with precedence flags > config file > defaults; the config file is a
flat ``key=value`` text file using the long option names. Exit codes: 0 on
success, 1 for domain errors (empty or malformed data), 2 for usage and I/O
errors. The pipeline has no randomness anywhere, so identical inputs and
flags always reproduce identical artifacts.
"""

import argparse
import os
import sys
from decimal import Decimal, InvalidOperation

from . import collection_io, evaluation, retrieval, sweep as sweep_mod
from .collection_io import ParseError
from .index import InvertedIndex, build_index
from .textpipe import default_stoplist, load_stoplist, pipeline, stoplist_fingerprint
from .weighting import InvalidBaseError, WeightScheme


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise _Exit(2, f"cannot read {path}: {e}") from e


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _Exit(2, f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError("expected true/false/yes/no/1/0") from None


class _Options:
    """Flag > config > default resolution for one parsed command."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = _load_config(args.config) if args.config else {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.cfg.get(key)
            if value is not None and cast is not None:
                try:
                    value = cast(value)
                except (ValueError, InvalidOperation) as e:
                    raise _Exit(2, f"config {key}={value!r}: {e}") from e
        if value is None:
            value = default
        return value

    def require(self, key: str, cast=None):
        value = self.get(key, cast=cast)
        if value is None:
            raise _Exit(2, f"missing required option --{key.replace('_', '-')}")
        return value


def _out_dir(opts: _Options) -> str:
    out = opts.get("out") or os.environ.get("LOGBASE_IR_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _stoplist(opts: _Options) -> frozenset[str]:
    path = opts.get("stoplist")
    if path is None:
        return default_stoplist()
    try:
        return load_stoplist(path)
    except OSError as e:
        raise _Exit(2, f"cannot read stoplist {path}: {e}") from e


def _load_documents(opts: _Options):
    fmt = opts.get("format", "smart")
    if fmt not in collection_io.DOC_FORMATS:
        raise _Exit(2, f"unknown format {fmt!r}")
    docs = collection_io.parse_documents(_read_text(opts.require("docs")), fmt)
    if not docs:
        raise _Exit(1, "empty collection: no documents parsed")
    return docs


def _build_index(opts: _Options, stoplist) -> tuple[list, InvertedIndex]:
    docs = _load_documents(opts)
    tokenized = [(d.doc_id, pipeline(d.text, stoplist)) for d in docs]
    return docs, build_index(tokenized, stoplist_fingerprint(stoplist))


def _load_queries(opts: _Options):
    fmt = opts.get("format", "smart")
    return collection_io.parse_queries(_read_text(opts.require("queries")), fmt)


def _load_qrels(opts: _Options):
    fmt = opts.get("qrels_format", "auto")
    if fmt not in collection_io.QRELS_FORMATS:
        raise _Exit(2, f"unknown qrels format {fmt!r}")
    qrels = collection_io.parse_qrels(_read_text(opts.require("qrels")), fmt)
    if not qrels:
        raise _Exit(1, "degenerate qrels: no judged queries")
    return qrels


def _judged_queries(queries, qrels):
    """Keep queries with judgments; report the dropped remainder on stderr."""
    judged = [q for q in queries if q.query_id in qrels]
    dropped = len(queries) - len(judged)
    if dropped:
        print(f"note: {dropped} queries have no judgments and are skipped", file=sys.stderr)
    return judged


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def cmd_index(opts: _Options) -> int:
    """``stats`` and ``index``: build the index and print its statistics;
    ``index`` also writes a snapshot when --save-index is given."""
    stoplist = _stoplist(opts)
    docs, index = _build_index(opts, stoplist)
    stats = collection_io.collection_stats(docs, index)
    print(f"documents={stats.n_docs} distinct_terms={stats.n_distinct_terms} "
          f"text_bytes={stats.size_bytes}")
    snapshot = opts.get("save_index") if opts.args.command == "index" else None
    if snapshot:
        try:
            index.save(snapshot)
        except OSError as e:
            raise _Exit(2, f"cannot write {snapshot}: {e}") from e
        print(f"index snapshot written to {snapshot}")
    return 0


def _scheme(opts: _Options) -> WeightScheme:
    """The --base weighting, checked before any input is read."""
    return WeightScheme(float(opts.get("base", 10.0, cast=float)))


def cmd_search(opts: _Options) -> int:
    scheme = _scheme(opts)
    k = opts.get("top", 10, cast=int)
    if k < 1:
        raise _Exit(2, f"top must be >= 1, got {k}")
    stoplist = _stoplist(opts)
    snapshot = opts.get("load_index")
    if snapshot:
        try:
            index = InvertedIndex.load(snapshot)
        except OSError as e:
            raise _Exit(2, f"cannot read {snapshot}: {e}") from e
        except ValueError as e:
            raise _Exit(1, f"{snapshot}: {e}") from e
        if index.stoplist_sha256 != stoplist_fingerprint(stoplist):
            raise _Exit(1, f"{snapshot}: index snapshot was built with another stoplist; "
                           "rebuild it with `logbase-ir index --save-index` and the same "
                           "--stoplist as this search")
    else:
        _, index = _build_index(opts, stoplist)
    ranker = retrieval.Ranker(index, scheme)
    ranked = ranker.rank_tokens(0, pipeline(opts.args.query, stoplist))
    for position, (doc_id, score) in enumerate(ranked.entries[:k], start=1):
        print(f"{position}\t{doc_id}\t{score!r}")
    return 0


def _eval_inputs(opts: _Options):
    stoplist = _stoplist(opts)
    docs, index = _build_index(opts, stoplist)
    queries = _load_queries(opts)
    qrels = _load_qrels(opts)
    unknown = sorted(q for q in qrels if q not in {x.query_id for x in queries})
    if unknown:
        raise _Exit(1, f"qrels reference unknown query ids {unknown}")
    absent = set().union(*qrels.values()) - {d.doc_id for d in docs}
    if absent:
        print(f"note: {len(absent)} judged doc ids are not in the collection", file=sys.stderr)
    return stoplist, index, _judged_queries(queries, qrels), qrels


def _eval_options(opts: _Options) -> tuple[int, str, str]:
    """Cutoff, interpolation and pooling, validated before any work."""
    cutoff = opts.get("cutoff", evaluation.DEFAULT_CUTOFF, cast=int)
    if cutoff < 1:
        raise _Exit(2, f"cutoff must be >= 1, got {cutoff}")
    interp = opts.get("interp", "paper")
    if interp not in evaluation.INTERPOLATION_MODES:
        raise _Exit(2, f"unknown interp {interp!r}")
    pooling = opts.get("pooling", "per_query")
    if pooling not in evaluation.POOLING_MODES:
        raise _Exit(2, f"unknown pooling {pooling!r}")
    return cutoff, interp, pooling


def cmd_eval(opts: _Options) -> int:
    cutoff, interp, pooling = _eval_options(opts)
    scheme = _scheme(opts)
    out = _out_dir(opts)
    stoplist, index, queries, qrels = _eval_inputs(opts)
    ranker = retrieval.Ranker(index, scheme)
    accumulators = {q.query_id: ranker.accumulate(pipeline(q.text, stoplist)) for q in queries}
    # one pass for the norms of every document any query reaches
    norms = ranker.doc_norms(set().union(*(dot for _, dot in accumulators.values())))
    rankings = {qid: ranker.rank(qid, acc, norms) for qid, acc in accumulators.items()}
    summary, diagnostics = evaluation.evaluate_rankings(
        rankings, qrels, cutoff, interp, pooling
    )
    run_path = opts.get("save_run")
    if run_path:
        ordered = [rankings[qid] for qid in sorted(rankings)]
        sweep_mod.write_report(run_path, retrieval.format_run(ordered))
    for level, value in zip(evaluation.RECALL_LEVELS, summary.levels):
        print(f"level_{level:.1f} {value:.6f}")
    print(f"map {summary.map:.6f}")
    print(f"map_at_30 {summary.map_at_30:.6f}")
    for query_id, level in diagnostics:
        print(f"empty-bucket query={query_id} level={level / 10:.1f}", file=sys.stderr)
    csv_path = os.path.join(out, "eval.csv")
    sweep_mod.write_report(csv_path, ",".join(evaluation.EVAL_CSV_COLUMNS) + "\n"
                           + evaluation.format_summary_csv_row(str(scheme.base), summary) + "\n")
    print(f"report written to {csv_path}", file=sys.stderr)
    return 0


def cmd_sweep(opts: _Options) -> int:
    cutoff, interp, pooling = _eval_options(opts)
    base = opts.get("base", cast=float)
    spec = opts.get("grid")
    if base is not None and spec is not None:
        raise _Exit(2, "--base and --grid are mutually exclusive")
    try:
        if base is not None:
            grid = sweep_mod.BaseGrid.single(Decimal(str(base)))
        else:
            grid = sweep_mod.BaseGrid.parse(spec) if spec else sweep_mod.BaseGrid.default()
    except ValueError as e:
        raise _Exit(2, str(e)) from e
    top = opts.get("top", 5, cast=int)
    if top < 1:
        raise _Exit(2, f"top must be >= 1, got {top}")
    stoplist, index, queries, qrels = _eval_inputs(opts)
    out = _out_dir(opts)
    no_cache = opts.get("no_cache", False, cast=_boolean)
    cache_path = None if no_cache else os.path.join(out, "sweep_cache.jsonl")

    result = sweep_mod.run_sweep(
        index,
        queries,
        qrels,
        grid,
        stoplist=stoplist,
        cutoff=cutoff,
        interpolation=interp,
        pooling=pooling,
        cache_path=cache_path,
        collection_name=opts.get("name", ""),
    )
    print(f"note: {_count(result.distinct_rankings, 'distinct ranking')} to the cutoff "
          f"across {_count(result.ranked_bases, 'base')}; "
          f"{_count(result.fragile_groups, 'fragile group')}", file=sys.stderr)

    sweep_mod.emit_csv(result, os.path.join(out, "sweep.csv"))
    for metric in sweep_mod.METRICS:
        rows = sweep_mod.top_k_report(result, metric, top)
        sweep_mod.write_report(os.path.join(out, f"top{top}_{metric}.txt"),
                               sweep_mod.render_table(rows, metric))
        sweep_mod.emit_metric_curve(result, metric, os.path.join(out, f"curve_{metric}.csv"))
        try:
            compare = sweep_mod.best_standard_worst(result, metric)
        except ValueError as e:
            print(f"note: comparison table skipped: {e}", file=sys.stderr)
            continue
        sweep_mod.write_report(os.path.join(out, f"compare_{metric}.txt"),
                               sweep_mod.render_table(compare, metric))
        sweep_mod.emit_level_curves(
            result,
            [row.base for row in compare],
            os.path.join(out, f"levels_{metric}.csv"),
        )
    evaluated = len(result.per_base)
    skipped = len(result.skipped)
    print(f"sweep complete: {evaluated} bases evaluated, {skipped} skipped; "
          f"reports in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbase-ir",
        description="Vector-space retrieval with a configurable IDF log base.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, queries: bool = False):
        p.add_argument("--docs", help="document collection file")
        p.add_argument("--format", choices=collection_io.DOC_FORMATS,
                       help="collection file format (default smart)")
        p.add_argument("--stoplist", help="stoplist file overriding the bundled list")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default $LOGBASE_IR_OUT or ./out)")
        if queries:
            p.add_argument("--queries", help="query file")
            p.add_argument("--qrels", help="relevance judgments file")
            p.add_argument("--qrels-format", dest="qrels_format",
                           choices=collection_io.QRELS_FORMATS,
                           help="qrels layout (default auto)")
            p.add_argument("--cutoff", type=int, help="ranking depth per query (default 1000)")
            p.add_argument("--interp", choices=evaluation.INTERPOLATION_MODES,
                           help="level precision mode (default paper)")
            p.add_argument("--pooling", choices=evaluation.POOLING_MODES,
                           help="bucket per query or pool all points (default per_query)")

    p = sub.add_parser("stats", help="parse, index and report collection statistics")
    add_common(p)

    p = sub.add_parser("index", help="build the index and optionally snapshot it")
    add_common(p)
    p.add_argument("--save-index", dest="save_index", help="write an index snapshot")

    p = sub.add_parser("search", help="rank documents for an ad-hoc query")
    add_common(p)
    p.add_argument("--load-index", dest="load_index", help="use an index snapshot")
    p.add_argument("--base", type=float, help="log base (default 10)")
    p.add_argument("-k", "--top", type=int, help="results to print (default 10)")
    p.add_argument("query", help="query text")

    p = sub.add_parser("eval", help="evaluate one weighting base against qrels")
    add_common(p, queries=True)
    p.add_argument("--base", type=float, help="log base (default 10)")
    p.add_argument("--save-run", dest="save_run",
                   help="write the ranked lists as a TSV run file")

    p = sub.add_parser("sweep", help="evaluate every base on a grid and report")
    add_common(p, queries=True)
    p.add_argument("--base", type=float, help="evaluate a single base instead of a grid")
    p.add_argument("--grid", help="base grid as START:STOP:STEP (default 0.1:100.0:0.1)")
    p.add_argument("--top", type=int, help="rows in the top-k tables (default 5)")
    p.add_argument("--name", help="collection name recorded in the sweep result")
    p.add_argument("--no-cache", dest="no_cache", action="store_true", default=None,
                   help="disable the per-base resume cache")
    return parser


_COMMANDS = {
    "stats": cmd_index,
    "index": cmd_index,
    "search": cmd_search,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_Options(args))
    except _Exit as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InvalidBaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
