"""Command-line interface.

Subcommands: ``index``, ``search``, ``eval``, ``sweep``, ``stats``. Options
resolve with precedence flags > config file > defaults; the config file is a
flat ``key=value`` text file whose keys are the long option names with ``_``
where the flag has ``-`` (``save_run=run.tsv`` for ``--save-run``). A key
that no subcommand takes is a usage error; a key of another subcommand is
ignored, so one file can serve several commands. Of two mutually exclusive
options (--base and --grid of ``sweep``, --docs and --load-index of
``search``), a flag outranks both keys. Every option is checked before any
input but the config file is read. Exit codes: 0 on success, 1 for domain
errors (empty or malformed data), 2 for usage and I/O errors. The pipeline
has no randomness anywhere, so identical inputs and flags always reproduce
identical artifacts.
"""

import argparse
import os
import sys
from io import TextIOWrapper

from .index import InvertedIndex, build_index, write_report
from .retrieval import Ranker
from .textpipe import (
    default_stoplist,
    parse_stoplist,
    pipeline,
    split_lines,
    stoplist_fingerprint,
)
from .weighting import InvalidBaseError, WeightScheme

# A command imports the modules only it runs (collection_io, evaluation,
# sweep) when it runs, so a search from a snapshot loads none of them.


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str, read=TextIOWrapper.read):
    """``read`` applied to the open text input file, by default its whole
    text. Every input file (--docs, --queries, --qrels, --config, --stoplist)
    is opened here: as UTF-8, line ends untranslated, so only "\n" and "\r\n"
    end a line (``split_lines``) and a lone "\r" stays text."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return read(f)
    except OSError as e:
        raise _Exit(2, f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise _Exit(1, f"{path}: not UTF-8: {e}") from e


def _load_config(path: str, known: frozenset[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(_read(path)), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _Exit(2, f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            hint = key.replace("-", "_")
            hint = f" (did you mean {hint!r}?)" if hint in known else ""
            raise _Exit(2, f"{path}:{lineno}: unknown option {key!r}{hint}")
        cfg[key] = value
    return cfg


def _config_keys(parser: argparse.ArgumentParser) -> frozenset[str]:
    """The keys a config file may set: every option of every subcommand."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        action.dest
        for p in subcommands.choices.values()
        for action in p._actions
        if action.option_strings and action.dest not in ("help", "config")
    )


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError("expected true/false/yes/no/1/0") from None


class _Options:
    """Flag > config > default resolution for one parsed command."""

    def __init__(self, args: argparse.Namespace, config_keys: frozenset[str]):
        self.args = args
        self.cfg = _load_config(args.config, config_keys) if args.config else {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.cfg.get(key)
            if value is not None and cast is not None:
                try:
                    value = cast(value)
                except ValueError as e:
                    raise _Exit(2, f"config {key}={value!r}: {e}") from e
        if value is None:
            value = default
        return value

    def require(self, key: str, cast=None):
        value = self.get(key, cast=cast)
        if value is None:
            raise _Exit(2, f"missing required option --{key.replace('_', '-')}")
        return value


def _exclusive(opts: _Options, first: str, second: str, cast=None) -> tuple:
    """The values of two mutually exclusive options, at most one of them not
    None; ``cast`` converts a config value of the first. A flag outranks both
    config keys; two flags, or both keys and no flag, exit 2."""
    flags = getattr(opts.args, first), getattr(opts.args, second)
    if flags == (None, None):
        values = opts.get(first, cast=cast), opts.get(second)
    else:
        values = flags
    if None not in values:
        raise _Exit(2, f"--{first} and --{second} are mutually exclusive".replace("_", "-"))
    return values


def _out_dir(opts: _Options) -> str:
    out = opts.get("out") or os.environ.get("LOGBASE_IR_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _stoplist(opts: _Options) -> frozenset[str]:
    path = opts.get("stoplist")
    return default_stoplist() if path is None else parse_stoplist(_read(path))


def _choice(opts: _Options, key: str, default: str, allowed: tuple[str, ...]) -> str:
    """An option that takes one of a fixed set of values, from a flag or the
    config file alike; any other value exits 2."""
    value = opts.get(key, default)
    if value not in allowed:
        raise _Exit(2, f"unknown {key.replace('_', ' ')} {value!r}")
    return value


def _build_index(opts: _Options) -> tuple[InvertedIndex, int, frozenset[str]]:
    """The index of the --docs file, read in one pass, the UTF-8 size of the
    documents' text, and the stoplist the index was built with. --format and
    --docs are checked before any input is read. Each record is parsed, run
    through the pipeline and folded into the postings, then dropped."""
    from . import collection_io

    fmt = _choice(opts, "format", "smart", collection_io.DOC_FORMATS)
    path = opts.require("docs")
    stoplist = _stoplist(opts)
    text_bytes = 0

    def tokenized(records):
        nonlocal text_bytes
        for doc_id, text in records:
            text_bytes += len(text.encode("utf-8"))
            yield doc_id, pipeline(text, stoplist)

    def build(f):
        records = collection_io.document_records(collection_io.file_lines(f), fmt)
        return build_index(tokenized(records), stoplist_fingerprint(stoplist))

    return _read(path, build), text_bytes, stoplist


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
    index, text_bytes, _ = _build_index(opts)
    print(f"documents={index.n_docs} distinct_terms={len(index.dictionary)} "
          f"text_bytes={text_bytes}")
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
    snapshot, _ = _exclusive(opts, "load_index", "docs")
    if snapshot:
        if opts.get("format") is not None:  # as the --docs path checks it
            from .collection_io import DOC_FORMATS

            _choice(opts, "format", "smart", DOC_FORMATS)
        stoplist = _stoplist(opts)
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
        index, _, stoplist = _build_index(opts)
    ranked = Ranker(index, scheme).rank_tokens(0, pipeline(opts.args.query, stoplist))
    for position, (doc_id, score) in enumerate(ranked.entries[:k], start=1):
        print(f"{position}\t{doc_id}\t{score!r}")
    return 0


def _eval_inputs(opts: _Options):
    """The stoplist, index, judged queries and qrels of ``eval`` and
    ``sweep``; every input path is checked before any input is read."""
    from . import collection_io

    queries_path, qrels_path = opts.require("queries"), opts.require("qrels")
    index, _, stoplist = _build_index(opts)
    queries = collection_io.parse_queries(_read(queries_path), opts.get("format", "smart"))
    # the qrels format is checked by _eval_options
    qrels = collection_io.parse_qrels(_read(qrels_path), opts.get("qrels_format", "auto"))
    if not qrels:
        raise _Exit(1, "degenerate qrels: no judged queries")
    unknown = sorted(q for q in qrels if q not in {x.query_id for x in queries})
    if unknown:
        raise _Exit(1, f"qrels reference unknown query ids {unknown}")
    absent = set().union(*qrels.values()) - index.norms.keys()
    if absent:
        print(f"note: {len(absent)} judged doc ids are not in the collection", file=sys.stderr)
    return stoplist, index, _judged_queries(queries, qrels), qrels


def _eval_options(opts: _Options) -> tuple[int, str, str]:
    """Cutoff, interpolation and pooling, validated before any work, as are
    the collection and qrels formats."""
    from . import collection_io, evaluation

    cutoff = opts.get("cutoff", evaluation.DEFAULT_CUTOFF, cast=int)
    if cutoff < 1:
        raise _Exit(2, f"cutoff must be >= 1, got {cutoff}")
    interp = _choice(opts, "interp", "paper", evaluation.INTERPOLATION_MODES)
    pooling = _choice(opts, "pooling", "per_query", evaluation.POOLING_MODES)
    _choice(opts, "format", "smart", collection_io.DOC_FORMATS)
    _choice(opts, "qrels_format", "auto", collection_io.QRELS_FORMATS)
    return cutoff, interp, pooling


def cmd_eval(opts: _Options) -> int:
    from . import evaluation
    from .retrieval import format_run

    cutoff, interp, pooling = _eval_options(opts)
    scheme = _scheme(opts)
    stoplist, index, queries, qrels = _eval_inputs(opts)
    out = _out_dir(opts)
    ranker = Ranker(index, scheme)
    rankings = {q.query_id: ranker.rank_tokens(q.query_id, pipeline(q.text, stoplist))
                for q in queries}
    summary, diagnostics = evaluation.evaluate_rankings(
        rankings, qrels, cutoff, interp, pooling
    )
    run_path = opts.get("save_run")
    if run_path:
        ordered = [rankings[qid] for qid in sorted(rankings)]
        write_report(run_path, format_run(ordered))
    for level, value in zip(evaluation.RECALL_LEVELS, summary.levels):
        print(f"level_{level:.1f} {value:.6f}")
    print(f"map {summary.map:.6f}")
    print(f"map_at_30 {summary.map_at_30:.6f}")
    for query_id, level in diagnostics:
        print(f"empty-bucket query={query_id} level={level / 10:.1f}", file=sys.stderr)
    csv_path = os.path.join(out, "eval.csv")
    write_report(csv_path, ",".join(evaluation.EVAL_CSV_COLUMNS) + "\n"
                 + evaluation.format_summary_csv_row(str(scheme.base), summary) + "\n")
    print(f"report written to {csv_path}", file=sys.stderr)
    return 0


def cmd_sweep(opts: _Options) -> int:
    from decimal import Decimal

    from . import sweep as sweep_mod

    cutoff, interp, pooling = _eval_options(opts)
    base, spec = _exclusive(opts, "base", "grid", cast=float)
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
    no_cache = opts.get("no_cache", False, cast=_boolean)
    stoplist, index, queries, qrels = _eval_inputs(opts)
    out = _out_dir(opts)
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
    )
    print(f"note: {_count(result.distinct_rankings, 'distinct ranking')} to the cutoff "
          f"across {_count(result.ranked_bases, 'base')}; "
          f"{_count(result.fragile_groups, 'fragile group')}", file=sys.stderr)

    sweep_mod.emit_csv(result, os.path.join(out, "sweep.csv"))
    for metric in sweep_mod.METRICS:
        rows = sweep_mod.top_k_report(result, metric, top)
        write_report(os.path.join(out, f"top{top}_{metric}.txt"),
                     sweep_mod.render_table(rows, metric))
        sweep_mod.emit_metric_curve(result, metric, os.path.join(out, f"curve_{metric}.csv"))
        try:
            compare = sweep_mod.best_standard_worst(result, metric)
        except ValueError as e:
            print(f"note: comparison table skipped: {e}", file=sys.stderr)
            continue
        write_report(os.path.join(out, f"compare_{metric}.txt"),
                     sweep_mod.render_table(compare, metric))
        sweep_mod.emit_level_curves(
            result,
            [label for label, _ in compare],
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
        p.add_argument("--format",
                       help="collection file format: smart, npl, lisa or jsonl (default smart)")
        p.add_argument("--stoplist", help="stoplist file overriding the bundled list")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default $LOGBASE_IR_OUT or ./out)")
        if queries:
            p.add_argument("--queries", help="query file")
            p.add_argument("--qrels", help="relevance judgments file")
            p.add_argument("--qrels-format", dest="qrels_format",
                           help="qrels layout: auto, two, three, four or idlist (default auto)")
            p.add_argument("--cutoff", type=int, help="ranking depth per query (default 1000)")
            p.add_argument("--interp", help="level precision mode: paper or standard "
                           "(default paper)")
            p.add_argument("--pooling", help="bucket per query or pool all points: "
                           "per_query or pooled (default per_query)")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_Options(args, _config_keys(parser)))
    except _Exit as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InvalidBaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
