"""Command-line interface.

Subcommands: ``index``, ``search``, ``eval`` and ``sweep``. Each option is
declared once, in ``_OPTIONS``: its config key, the subcommands that take it
and its help text. The parser and the config check are both built from that
table; no option names a layout, since every input file shows its own
(``collection_io``). Options resolve with precedence flags >
config file > defaults, and --out has $LOGBASE_IR_OUT before its default. A
flag is spelled in full, never abbreviated. The config file is a flat
``key=value`` text file whose keys are the long option names with ``_``
where the flag has ``-`` (``save_run=run.tsv`` for ``--save-run``). A key
that no subcommand takes, a key set twice or a flag given twice (-k and
--top are one flag) is a usage error; a key of another subcommand is
ignored, so one file can serve several commands. A flag's value and a config
value are the same text, converted by the same cast, and an empty one is a
usage error. Of two mutually exclusive options (--base and --grid of
``sweep``, --docs and --load-index of ``search``), a flag outranks both
keys. Every option is checked before any input but the config file is read,
--out by making it (removed if the command fails). A --base has one check
(``_scheme``) and one report label, ``str`` of its float; only a --grid goes
through ``sweep.grid_labels``. A sweep always resumes from its cache,
``sweep_cache.jsonl`` in --out, keyed on its input files' bytes, and its
top-k tables hold 5 rows. Exit codes: 0 on success, 1 for domain errors
(empty or malformed data), 2 for usage and I/O errors; an input file's
faults, an index snapshot's too, take theirs in one place, ``_input``, and
every text input has one line rule and one read (``_read``). The pipeline
has no randomness anywhere, so identical inputs and flags always reproduce
identical artifacts.
"""

import argparse
import hashlib
import os
import sys
from contextlib import contextmanager, suppress
from io import BytesIO, TextIOWrapper

from .index import InvertedIndex, build_index, write_report
from .retrieval import Ranker
from .textpipe import (
    default_stoplist,
    parse_stoplist,
    pipeline,
    stoplist_fingerprint,
)
from .weighting import WeightScheme

# A command imports the modules only it runs (collection_io, evaluation,
# sweep) when it runs, so a search from a snapshot loads none of them.


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _input(path: str):
    """Every fault of the input file at ``path`` (--docs, --queries, --qrels,
    --config, --stoplist or --load-index), raised within, as its exit: an
    OSError exits 2 with the reason alone; any ValueError, a
    ``collection_io.ParseError`` among them, exits 1 after the path."""
    try:
        yield
    except OSError as e:
        raise _Exit(2, f"cannot read {path}: {e.strerror or e}") from e
    except ValueError as e:
        raise _Exit(1, f"{path}: {e}") from e


def _read(path: str, read=TextIOWrapper.read, sha256: dict[str, str] | None = None,
          key: str = ""):
    """``read`` applied to the text input file (--docs, --queries, --qrels,
    --config, --stoplist), by default its whole text, inside ``_input``. Its
    bytes are read once, their sha256 put in ``sha256[key]`` if given, and the
    text decoded from the same bytes: UTF-8 less a leading byte order mark,
    lines that end at "\n" only and keep it, "\r" untranslated. A byte that
    is not UTF-8 exits 1 naming its line and file offset. A caller of the
    whole text splits it at "\n" alone, so every input has one line rule, and
    every parser takes a "\r" before the "\n" for whitespace."""
    with _input(path):
        with open(path, "rb") as f:
            data = f.read()
        if sha256 is not None:
            sha256[key] = hashlib.sha256(data).hexdigest()
        try:
            return read(TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline="\n"))
        except UnicodeDecodeError:
            # the reader's positions count from the chunk it decodes
            try:
                data.decode("utf-8")  # not utf-8-sig, whose positions skip a BOM
            except UnicodeDecodeError as e:
                line = data.count(b"\n", 0, e.start) + 1
                raise _Exit(1, f"{path}: not UTF-8: line {line}: {e}") from e
            raise


_ALL = ("index", "search", "eval", "sweep")
_EVAL = ("eval", "sweep")

# Every option once: its config key (the flag is --key with - for _), the
# subcommands that take it and its help text.
_OPTIONS = {
    "docs": (_ALL, "document collection file"),
    "stoplist": (_ALL, "stoplist file overriding the bundled list"),
    "save_index": (("index",), "write an index snapshot"),
    "load_index": (("search",), "use an index snapshot"),
    "out": (_EVAL, "output directory (default $LOGBASE_IR_OUT or ./out)"),
    "queries": (_EVAL, "query file"),
    "qrels": (_EVAL, "relevance judgments file"),
    "cutoff": (_EVAL, "ranking depth per query (default 1000)"),
    "base": (("search", "eval", "sweep"),
             "log base (default 10); sweep evaluates it alone, in place of a grid"),
    "save_run": (("eval",), "write the ranked lists as a TSV run file"),
    "grid": (("sweep",), "base grid as START:STOP:STEP (default 0.1:100.0:0.1)"),
    "top": (("search",), "results to print (default 10)"),
}
# pairs of mutually exclusive options, in the order their error names them
_EXCLUSIVE = (("load_index", "docs"), ("base", "grid"))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_read(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _Exit(2, f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            hint = key.replace("-", "_")
            hint = f" (did you mean {hint!r}?)" if hint in _OPTIONS else ""
            raise _Exit(2, f"{path}:{lineno}: unknown option {key!r}{hint}")
        if key in cfg:
            raise _Exit(2, f"{path}:{lineno}: option {key!r} already set on line "
                           f"{first_line[key]}")
        cfg[key], first_line[key] = value, lineno
    return cfg


class _Options:
    """Flag > config > default resolution of the running subcommand's
    options; the config keys of other subcommands are dropped. ``out`` has
    $LOGBASE_IR_OUT between config and default. A flag given twice exits 2
    before the config file is read. An empty value, from a flag, a config key
    or the variable, exits 2. A flag of an exclusive pair outranks both
    config keys; two flags, or both keys and no flag, exit 2."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        keys = [key for key, (commands, _) in _OPTIONS.items() if args.command in commands]
        # each flag's values, as build_parser appends them
        flags = {key: values for key in ("config", *keys) if (values := getattr(args, key))}
        twice = [key for key, values in flags.items() if len(values) > 1]
        if twice:
            raise _Exit(2, f"{_flag(twice[0])} given twice")
        flags = {key: value for key, (value,) in flags.items()}
        config = flags.pop("config", None)
        if config == "":
            raise _Exit(2, "--config is empty")
        cfg = {} if config is None else _load_config(config)
        outranked = {key for pair in _EXCLUSIVE if flags.keys() & set(pair) for key in pair}
        # each given option: (text, where it came from)
        self.given = {}
        if "out" in keys and (env := os.environ.get("LOGBASE_IR_OUT")) is not None:
            self.given["out"] = (env, "$LOGBASE_IR_OUT")
        self.given.update((key, (cfg[key], f"config {key}")) for key in keys
                          if key in cfg and key not in outranked)
        self.given.update((key, (value, _flag(key))) for key, value in flags.items())
        for value, where in self.given.values():
            if not value:
                raise _Exit(2, f"{where} is empty")
        for first, second in _EXCLUSIVE:
            if first in self.given and second in self.given:
                raise _Exit(2, f"{_flag(first)} and {_flag(second)} are mutually exclusive")

    def get(self, key: str, default=None, cast=None):
        """The option's text, ``cast`` applied to a flag's and a config
        value's alike, or ``default`` when neither is given."""
        if key not in self.given:
            return default
        value, where = self.given[key]
        if cast is None:
            return value
        try:
            return cast(value)
        except ValueError as e:
            raise _Exit(2, f"{where}={value!r}: {e}") from e

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise _Exit(2, f"missing required option {_flag(key)}")
        return value


def _stoplist(opts: _Options) -> frozenset[str]:
    path = opts.get("stoplist")
    return default_stoplist() if path is None else parse_stoplist(_read(path))


def _at_least_one(opts: _Options, key: str, default: int) -> int:
    value = opts.get(key, default, cast=int)
    if value < 1:
        raise _Exit(2, f"{key} must be >= 1, got {value}")
    return value


def _index(
    opts: _Options, sha256: dict[str, str] | None = None
) -> tuple[InvertedIndex, frozenset[str], int | None]:
    """The command's index and stoplist, and the UTF-8 size of the
    documents' text (None from a snapshot). The index is the --load-index
    snapshot, if built with the same stoplist, or else built from --docs in
    one pass, in the layout the file shows (its sha256 in ``sha256``, as
    ``_read`` records it). --docs is checked before any input is read."""
    snapshot = opts.get("load_index")
    docs = None if snapshot else opts.require("docs")
    stoplist = _stoplist(opts)
    if snapshot:
        with _input(snapshot):
            index = InvertedIndex.load(snapshot)
            if index.stoplist_sha256 != stoplist_fingerprint(stoplist):
                raise ValueError("index snapshot was built with another stoplist; rebuild it "
                                 "with `logbase-ir index --save-index` and the same "
                                 "--stoplist as this search")
        return index, stoplist, None
    from . import collection_io

    text_bytes = 0

    def tokenized(records):
        nonlocal text_bytes
        for doc_id, text in records:
            text_bytes += len(text.encode("utf-8"))
            yield doc_id, pipeline(text, stoplist)

    def build(f):
        records = collection_io.parse_documents(f)
        return build_index(tokenized(records), stoplist_fingerprint(stoplist))

    index = _read(docs, build, sha256, "docs")
    return index, stoplist, text_bytes


def _count(n: int, one: str, many: str | None = None) -> str:
    """n and the words that follow it: ``one`` when n is 1, else ``many``,
    by default ``one`` and an "s"."""
    return f"{n} {one}" if n == 1 else f"{n} {many or one + 's'}"


def _note(n: int, one: str, many: str) -> None:
    """A stderr note on n things, worded as ``_count`` does; none for 0."""
    if n:
        print(f"note: {_count(n, one, many)}", file=sys.stderr)


def cmd_index(opts: _Options) -> int:
    """Build the index and print its statistics; write a snapshot when
    --save-index is given."""
    index, _, text_bytes = _index(opts)
    print(f"documents={index.n_docs} distinct_terms={len(index.dictionary)} "
          f"text_bytes={text_bytes}")
    snapshot = opts.get("save_index")
    if snapshot:
        index.save(snapshot)
        print(f"index snapshot written to {snapshot}")
    return 0


def _scheme(opts: _Options) -> WeightScheme:
    """The --base weighting, checked before any input is read."""
    try:
        return WeightScheme(opts.get("base", 10.0, cast=float))
    except ValueError as e:
        raise _Exit(2, str(e)) from e


def cmd_search(opts: _Options) -> int:
    scheme = _scheme(opts)
    k = _at_least_one(opts, "top", 10)
    index, stoplist, _ = _index(opts)
    ranked = Ranker(index, scheme).rank_tokens(0, pipeline(opts.args.query, stoplist))
    for position, (doc_id, score) in enumerate(ranked.entries[:k], start=1):
        print(f"{position}\t{doc_id}\t{score!r}")
    return 0


@contextmanager
def _out_dir(opts: _Options):
    """--out of ``eval`` and ``sweep``, made by ``os.makedirs`` before any
    input is read. If the command then fails, Ctrl-C included, the
    directories made are removed, deepest first, by ``rmdir``, which leaves
    any that is not empty, such as one holding a sweep's cache."""
    out = opts.get("out", "out")
    made, path = [], out.rstrip(os.sep)  # made: the paths os.makedirs makes, deepest first
    while path and not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as e:
            raise _Exit(2, f"cannot create output directory {out}: {e.strerror or e}") from e
        yield out
    except BaseException:
        for path in made:
            with suppress(OSError):
                os.rmdir(path)
        raise


def _eval_inputs(opts: _Options, sha256: dict[str, str] | None = None):
    """The index, judged queries and qrels of ``eval`` and ``sweep``, each
    file read in the layout it shows (``collection_io``), and each file's
    sha256 in ``sha256`` under its option's name (``_read``). The judged
    queries are ``{query_id: tokens}`` in query-file order. A malformed file exits 1 naming it, as do
    qrels naming a query the file lacks, or no query at all. Judged pairs
    graded <= 0, judged doc ids absent from the collection, then unjudged
    queries, are noted on stderr."""
    from . import collection_io

    queries_path, qrels_path = opts.require("queries"), opts.require("qrels")
    index, stoplist, _ = _index(opts, sha256)
    queries = _read(queries_path, lambda f: collection_io.parse_queries(f.read()),
                    sha256, "queries")
    qrels, nonpositive = _read(qrels_path, lambda f: collection_io.parse_qrels(f.read()),
                               sha256, "qrels")
    if not qrels:
        raise _Exit(1, "degenerate qrels: no judged queries")
    unknown = sorted(qrels.keys() - queries.keys())
    if unknown:
        raise _Exit(1, f"qrels reference unknown query ids {unknown}")
    _note(nonpositive, "judged pair has a grade <= 0 and counts as relevant",
          "judged pairs have a grade <= 0 and count as relevant")
    _note(len(set().union(*qrels.values()) - index.norms.keys()),
          "judged doc id is not in the collection", "judged doc ids are not in the collection")
    _note(len(queries) - len(qrels),  # the qrels name known queries only
          "query has no judgments and is skipped", "queries have no judgments and are skipped")
    query_tokens = {qid: pipeline(text, stoplist) for qid, text in queries.items()
                    if qid in qrels}
    return index, query_tokens, qrels


def cmd_eval(opts: _Options) -> int:
    from . import evaluation
    from .retrieval import format_run

    cutoff = _at_least_one(opts, "cutoff", evaluation.DEFAULT_CUTOFF)
    scheme = _scheme(opts)
    with _out_dir(opts) as out:
        index, query_tokens, qrels = _eval_inputs(opts)
        ranker = Ranker(index, scheme)
        rankings = {qid: ranker.rank_tokens(qid, tokens) for qid, tokens in query_tokens.items()}
        summary, diagnostics = evaluation.evaluate_rankings(rankings, qrels, cutoff)
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
        write_report(csv_path, evaluation.summary_csv([(str(scheme.base), summary)]))
        print(f"report written to {csv_path}", file=sys.stderr)
    return 0


def cmd_sweep(opts: _Options) -> int:
    from . import evaluation, sweep as sweep_mod

    cutoff = _at_least_one(opts, "cutoff", evaluation.DEFAULT_CUTOFF)
    if opts.get("base") is not None:
        labels = [str(_scheme(opts).base)]
    else:
        try:
            labels = sweep_mod.grid_labels(opts.get("grid", sweep_mod.DEFAULT_GRID))
        except ValueError as e:
            raise _Exit(2, str(e)) from e
    with _out_dir(opts) as out:
        # the resume cache's key holds no path: a copy of the inputs hits it
        inputs = {}
        index, query_tokens, qrels = _eval_inputs(opts, inputs)
        inputs["stoplist"] = index.stoplist_sha256
        result = sweep_mod.run_sweep(
            index,
            query_tokens,
            qrels,
            labels,
            cutoff=cutoff,
            cache=(os.path.join(out, "sweep_cache.jsonl"), inputs),
        )
        print(f"note: {_count(result.distinct_rankings, 'distinct ranking')} to the cutoff "
              f"across {_count(result.ranked_bases, 'base')}; "
              f"{_count(result.fragile_groups, 'fragile group')}", file=sys.stderr)

        sweep_mod.emit_csv(result, os.path.join(out, "sweep.csv"))
        for metric in sweep_mod.METRICS:
            rows = sweep_mod.top_k_report(result, metric, 5)
            write_report(os.path.join(out, f"top5_{metric}.txt"),
                         sweep_mod.render_table(rows, metric))
            sweep_mod.emit_metric_curve(result, metric, os.path.join(out, f"curve_{metric}.csv"))
            try:
                compare = sweep_mod.best_standard_worst(result, metric)
            except ValueError as e:
                print(f"note: {metric} comparison table skipped: {e}", file=sys.stderr)
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


_COMMANDS = {
    "index": (cmd_index, "build the index, report its statistics and optionally "
                         "snapshot it"),
    "search": (cmd_search, "rank documents for an ad-hoc query"),
    "eval": (cmd_eval, "evaluate one weighting base against qrels"),
    "sweep": (cmd_sweep, "evaluate every base on a grid and report"),
}


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --config and its options of ``_OPTIONS``, all
    as text, each flag's values appended to a list so that ``_Options`` can
    refuse a flag given twice; ``search`` also takes -k for --top and the
    query."""
    parser = argparse.ArgumentParser(
        prog="logbase-ir",
        description="Vector-space retrieval with a configurable IDF log base.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", action="append", help="flat key=value config file")
        for key, (commands, help_text) in _OPTIONS.items():
            if command not in commands:
                continue
            short = ["-k"] if key == "top" else []
            p.add_argument(*short, _flag(key), action="append", help=help_text)
        if command == "search":
            p.add_argument("query", help="query text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_Options(args))
    except _Exit as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
