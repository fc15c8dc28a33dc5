"""Run one ``logbase-ir`` command with timing wrapped around the package's
public functions, and write what was recorded as JSON when it ends.

Usage (with the package importable, e.g. ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py TRACE.json -- search --load-index idx.json "query"

Nothing inside the package is edited: each public function named in
``TARGETS`` is replaced, in every package module that holds a reference to
it, by a wrapper that times the call. Calls of ``span`` functions are kept
as spans (name, start, end, parent). Calls of ``agg`` functions, which run
once per token, term, document or query, are only counted and summed, so
tracing them stays cheap. Every wrapper adds its duration to the enclosing
wrapped call, so a function's self time is its time minus that of the
wrapped calls it made. A target that does not exist (renamed or removed by
a later change) is skipped and listed as missing; its metrics are then
absent rather than the command failing.
"""

import importlib
import json
import os
import sys
import time

clock = time.perf_counter

SPAN, AGG = "span", "agg"

# (module, attribute path, kind)
TARGETS = [
    ("cli", "main", SPAN),
    ("collection_io", "parse_documents", SPAN),
    ("collection_io", "parse_queries", SPAN),
    ("collection_io", "parse_qrels", SPAN),
    ("textpipe", "pipeline", AGG),
    ("textpipe", "tokenize", AGG),
    ("porter", "stem", AGG),
    ("index", "build_index", SPAN),
    ("index", "InvertedIndex.__init__", SPAN),
    ("index", "InvertedIndex.save", SPAN),
    ("index", "InvertedIndex.load", SPAN),
    ("weighting", "idf", AGG),
    ("weighting", "weigh_query", AGG),
    ("retrieval", "Ranker.__init__", SPAN),
    ("retrieval", "Ranker.rank_tokens", AGG),
    ("retrieval", "format_run", SPAN),
    ("evaluation", "evaluate_rankings", SPAN),
    ("evaluation", "pr_curve", AGG),
    ("sweep", "run_sweep", SPAN),
    ("sweep", "emit_csv", SPAN),
    ("sweep", "top_k_report", SPAN),
    ("sweep", "best_standard_worst", SPAN),
    ("sweep", "render_table", SPAN),
    ("sweep", "emit_metric_curve", SPAN),
    ("sweep", "emit_level_curves", SPAN),
]


class Recorder:
    """Spans, per-function totals and work counts of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.acc: dict[str, list] = {}  # name -> [calls, total time, self time]
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        # one frame per active wrapped call: [time of wrapped callees, span index]
        self.stack: list[list] = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, name: str, kind: str, func, after):
        rec, stack, spans = self, self.stack, self.spans
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if kind == SPAN:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
                frame = [0.0, span]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[0]
                if kind == SPAN:
                    spans[span][1:3] = [start, end]
            if after is not None:
                try:
                    after(rec, args, result)
                except (AttributeError, TypeError, KeyError, OSError):
                    pass  # the count's source changed shape; leave it out
            return result

        return wrapper

    def dump(self, missing: list[str]) -> dict:
        return {
            "spans": self.spans,
            "calls": {k: a[0] for k, a in self.acc.items()},
            "total": {k: a[1] for k, a in self.acc.items()},
            "self": {k: a[2] for k, a in self.acc.items()},
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "missing": missing,
        }


def _text_bytes(rec, args, result):
    rec.count("bytes_in", len(args[0].encode("utf-8")))


def _tokens(rec, args, result):
    rec.count("tokens", len(result))


def _stem(rec, args, result):
    rec.see("stem_words", args[0])


def _built(rec, args, result):
    rec.count("terms", len(result.dictionary))
    rec.count("postings", sum(result.doc_freq(t) for t in result.dictionary))


def _snapshot_arg(rec, args, result):
    rec.count("snapshot_bytes", os.path.getsize(args[-1]))


def _ranked(rec, args, result):
    ranker, _query_id, tokens = args
    rec.count("candidates", len(result.entries))
    rec.count("postings_scanned", sum(ranker.index.doc_freq(t) for t in set(tokens)))


def _pr_curve(rec, args, result):
    ranked = args[0]
    cutoff = args[2] if len(args) > 2 else len(ranked.entries)
    rec.count("pr_points", len(result))
    rec.see("rankings", (ranked.query_id, tuple(d for d, _ in ranked.entries[:cutoff])))


def _swept(rec, args, result):
    rec.count("bases", len(result.per_base))


AFTER = {
    "collection_io.parse_documents": _text_bytes,
    "collection_io.parse_queries": _text_bytes,
    "collection_io.parse_qrels": _text_bytes,
    "textpipe.tokenize": _tokens,
    "porter.stem": _stem,
    "index.build_index": _built,
    "index.InvertedIndex.save": _snapshot_arg,
    "index.InvertedIndex.load": _snapshot_arg,
    "retrieval.Ranker.rank_tokens": _ranked,
    "evaluation.pr_curve": _pr_curve,
    "sweep.run_sweep": _swept,
}


def install(rec: Recorder) -> list[str]:
    """Wrap every target that exists; return the names of those that do not."""
    package = importlib.import_module("logbase_ir")
    modules = {}
    for mod_name, _, _ in TARGETS:
        try:
            modules[mod_name] = importlib.import_module(f"logbase_ir.{mod_name}")
        except ImportError:
            pass
    missing = []
    for mod_name, path, kind in TARGETS:
        name = f"{mod_name}.{path}"
        owner = modules.get(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            missing.append(name)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(name, kind, raw.__func__, AFTER.get(name))))
        elif outer:
            setattr(owner, attr, rec.wrap(name, kind, raw, AFTER.get(name)))
        else:
            # rebind the function wherever a package module imported it
            wrapped = rec.wrap(name, kind, raw, AFTER.get(name))
            for module in [package, *modules.values()]:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
    return missing


def main() -> int:
    trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- COMMAND ARGS...")
    rec = Recorder()
    missing = install(rec)
    cli = importlib.import_module("logbase_ir.cli")
    try:
        code = cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(rec.dump(missing), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
