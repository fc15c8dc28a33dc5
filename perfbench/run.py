"""End-to-end benchmark of the ``logbase-ir`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each workload is a closed loop of one client: it starts one command, waits
for it to end, checks its outputs, then starts the next. Every command runs
in a fresh Python process with a fresh output directory, so it pays what a
user's command pays (interpreter start, imports, parsing, indexing, report
writing) and no resume-cache entry or in-process cache carries over. Inputs
are generated from ``--seed`` (see ``gen.py``) and every output is checked
against an independent reference (``reference.py``, ``checks.py``).

Workloads (``--jobs`` stays at its default of 1):

* ``sweep``: ``sweep --grid 0.2:10.0:0.2`` on a MED-shaped collection. 50
  grid values, base 1.0 skipped, 49 bases evaluated per command. Work unit:
  one base evaluated. Set-up: ``sweep --base 10`` on the same inputs.
* ``eval``: ``eval --base 10 --save-run`` on a CRAN-shaped collection of
  225 judged queries. Work unit: one judged query evaluated. Set-up: the
  same eval with one judged query. Each round also runs a probe: an eval of
  a fixed, seed-independent collection that meets a recall on a bucket edge
  (``gen.probe``); the program gets it wrong, so it counts as failed.
* ``index-search``: set-up is ``index --save-index`` on an NPL-shaped
  collection of 11,000 short documents; the loop runs ``search
  --load-index -k 10``, each with the next generated query. Work unit: one
  search answered.

End-to-end metrics (``--trace 0``): ``throughput_per_s`` (work units over
the summed wall time of the loop's timed commands), ``setup_s`` (median
wall time of ``SETUP_SAMPLES`` set-up commands) and ``peak_rss_mb`` (the
largest peak resident set of any command process of the run).

Per-layer metrics (``--trace 1``): the same commands run under
``tracer.py``. Each value is that of one round: the mean over the set-up
commands plus the mean over the loop's commands (probes are not traced).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Decimal

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402

SETUP_SAMPLES = 3
SWEEP_GRID = "0.2:10.0:0.2"
SEARCH_K = 10
LOOP_LIMIT_S = 120  # no new round after this; each run must end within 180 s
COMMAND_LIMIT_S = 170


class Op:
    """One command of a round: its arguments, its check and its work."""

    def __init__(self, argv, check, out_dir, units=0, probe=False):
        self.argv = argv
        self.check = check
        self.out_dir = out_dir  # removed once the command is checked
        self.units = units  # work units; 0 for an untimed probe
        self.probe = probe  # expected to fail until the program is fixed


class Bench:
    def __init__(self, root: str, work: str, trace: bool, trace_dir: str):
        self.root = root
        self.work = work
        self.trace = trace
        self.trace_dir = trace_dir
        self.started = time.monotonic()
        self.n = 0
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.unexpected: list[str] = []
        self.layers: dict[str, list[dict]] = {"setup": [], "timed": []}
        self.residuals: list[float] = []  # |wall - start-up - self times| / wall
        self.covered: list[float] = []  # share of wall in self times below main

    def out_dir(self) -> str:
        self.n += 1
        path = os.path.join(self.work, "out", f"cmd{self.n}")
        os.makedirs(path)
        return path

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def run(self, op: Op, phase: str) -> tuple[float, list[str]]:
        """Run one command; return its wall time and its problems."""
        traced = self.trace and not op.probe
        trace_path = os.path.join(self.trace_dir, os.path.basename(op.out_dir) + ".json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "logbase_ir.cli", *op.argv]
        timeout = max(1.0, COMMAND_LIMIT_S - self.elapsed())
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, [f"timed out after {timeout:.0f} s"]
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {proc.returncode}: {tail[0]}"]
        else:
            try:
                problems = op.check(proc.stdout)
            except (ValueError, KeyError, IndexError) as e:
                problems = [f"unreadable output: {e!r}"]
        if traced and os.path.isfile(trace_path):
            with open(trace_path, encoding="utf-8") as f:
                self.layers[phase].append(self._layer_values(json.load(f), wall, op.out_dir))
        shutil.rmtree(op.out_dir, ignore_errors=True)
        return wall, problems

    def _layer_values(self, t: dict, wall: float, out_dir: str) -> dict:
        """Per-layer quantities of one traced command; None when unmeasurable."""
        missing = set(t["missing"])

        def total(*names):
            if any(n in missing for n in names):
                return None
            return sum(t["total"].get(n, 0.0) for n in names)

        def calls(name):
            return None if name in missing else t["calls"].get(name, 0)

        def count(key, *sources):
            return None if any(s in missing for s in sources) else t["counts"].get(key, 0)

        def distinct(key, source):
            return None if source in missing else t["distinct"].get(key, 0)

        def file_size(name):
            path = os.path.join(out_dir, name)
            return os.path.getsize(path) if os.path.isfile(path) else 0

        parse = ("collection_io.parse_documents", "collection_io.parse_queries", "collection_io.parse_qrels")
        report = ("sweep.emit_csv", "sweep.top_k_report", "sweep.best_standard_worst",
                  "sweep.render_table", "sweep.emit_metric_curve", "sweep.emit_level_curves")
        main_s = total("cli.main")
        self_sum = sum(t["self"].values())
        if main_s is not None:
            # start-up (wall - main) plus every self time make up the whole
            # wall time exactly when the self times add up to main
            self.residuals.append(abs(main_s - self_sum) / wall)
            self.covered.append((self_sum - t["self"].get("cli.main", 0.0)) / wall)
        return {
            "collection_io.parse_s": total(*parse),
            "collection_io.bytes_in": count("bytes_in", *parse),
            "textpipe.pipeline_s": total("textpipe.pipeline"),
            "textpipe.tokens": count("tokens", "textpipe.tokenize"),
            "porter.stem_s": total("porter.stem"),
            "porter.stem_calls": calls("porter.stem"),
            "porter.distinct_words": distinct("stem_words", "porter.stem"),
            "index.build_s": total("index.build_index"),
            "index.terms": count("terms", "index.build_index"),
            "index.postings": count("postings", "index.build_index"),
            "index.save_s": total("index.InvertedIndex.save"),
            "index.load_s": total("index.InvertedIndex.load"),
            "index.snapshot_bytes": count(
                "snapshot_bytes", "index.InvertedIndex.save", "index.InvertedIndex.load"
            ),
            "weighting.idf_calls": calls("weighting.idf"),
            "retrieval.rankers": calls("retrieval.Ranker.__init__"),
            "retrieval.ranker_setup_s": total("retrieval.Ranker.__init__"),
            "retrieval.score_s": total("retrieval.Ranker.rank_tokens"),
            "retrieval.queries_scored": calls("retrieval.Ranker.rank_tokens"),
            "retrieval.postings_scanned": count("postings_scanned", "retrieval.Ranker.rank_tokens"),
            "retrieval.candidates": count("candidates", "retrieval.Ranker.rank_tokens"),
            "retrieval.format_run_s": total("retrieval.format_run"),
            "cli.run_file_bytes": file_size("run.tsv"),
            "evaluation.evaluate_s": total("evaluation.evaluate_rankings"),
            "evaluation.pr_points": count("pr_points", "evaluation.pr_curve"),
            "evaluation.rankings": calls("evaluation.pr_curve"),
            "evaluation.distinct_rankings": distinct("rankings", "evaluation.pr_curve"),
            "sweep.run_self_s": None if "sweep.run_sweep" in missing
            else t["self"].get("sweep.run_sweep", 0.0),
            "sweep.report_s": total(*report),
            "sweep.bases": count("bases", "sweep.run_sweep"),
            "sweep.cache_bytes": file_size("sweep_cache.jsonl"),
            "cli.startup_s": None if main_s is None else wall - main_s,
            "cli.self_s": None if main_s is None else t["self"].get("cli.main", 0.0),
        }


# per-layer metrics: name -> unit; ratios are built from two summed counts
LAYER_UNITS = {
    "collection_io.parse_s": "s",
    "collection_io.bytes_in": "bytes",
    "textpipe.pipeline_s": "s",
    "textpipe.tokens": "count",
    "porter.stem_s": "s",
    "porter.stem_calls": "count",
    "porter.distinct_ratio": "ratio",
    "index.build_s": "s",
    "index.terms": "count",
    "index.postings": "count",
    "index.save_s": "s",
    "index.snapshot_bytes": "bytes",
    "index.load_s": "s",
    "weighting.idf_calls": "count",
    "retrieval.rankers": "count",
    "retrieval.ranker_setup_s": "s",
    "retrieval.score_s": "s",
    "retrieval.queries_scored": "count",
    "retrieval.postings_scanned": "count",
    "retrieval.candidates": "count",
    "retrieval.format_run_s": "s",
    "cli.run_file_bytes": "bytes",
    "evaluation.evaluate_s": "s",
    "evaluation.pr_points": "count",
    "evaluation.distinct_ratio": "ratio",
    "sweep.run_self_s": "s",
    "sweep.report_s": "s",
    "sweep.bases": "count",
    "sweep.cache_bytes": "bytes",
    "cli.startup_s": "s",
    "cli.self_s": "s",
}
RATIOS = {
    "porter.distinct_ratio": ("porter.distinct_words", "porter.stem_calls"),
    "evaluation.distinct_ratio": ("evaluation.distinct_rankings", "evaluation.rankings"),
}


def per_round(layers: dict[str, list[dict]]) -> dict:
    """Mean set-up command plus mean loop command, for every quantity."""
    values: dict[str, float | None] = {}
    for phase in ("setup", "timed"):
        rows = layers[phase]
        if not rows:
            continue
        for key in rows[0]:
            column = [row[key] for row in rows]
            if key in values and values[key] is None:
                continue
            if any(v is None for v in column):
                values[key] = None
            else:
                values[key] = values.get(key, 0.0) + statistics.fmean(column)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name in RATIOS:
            num, den = (values.get(k) for k in RATIOS[name])
            value = None if num is None or den is None else (num / den if den else 0.0)
        else:
            value = values.get(name)
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def _inputs(paths: dict) -> list[str]:
    return ["--docs", paths["docs"], "--queries", paths["queries"], "--qrels", paths["qrels"]]


def _grid_labels(spec: str) -> list[str]:
    start, stop, step = (Decimal(p) for p in spec.split(":"))
    labels = []
    k = 0
    while start + k * step <= stop:
        labels.append(str(start + k * step))
        k += 1
    return labels


def _reference_summary(ref, col, qrels):
    rankings = {q: [d for d, _ in ref.rank(col.queries[q])] for q in qrels}
    return reference.summary(rankings, qrels)


def sweep_workload(b: Bench, seed: int):
    col = gen.generate(gen.MED, seed)
    paths = gen.write(col, os.path.join(b.work, "med"))
    want = _reference_summary(reference.Reference(col.docs), col, col.qrels)
    labels = [x for x in _grid_labels(SWEEP_GRID) if Decimal(x) != 1]

    def setup():
        out = b.out_dir()
        argv = ["sweep", *_inputs(paths), "--base", "10", "--out", out]
        return Op(argv, lambda stdout: checks.sweep(stdout, out, ["10.0"], 0, want), out)

    def round_(i):
        out = b.out_dir()
        argv = ["sweep", *_inputs(paths), "--grid", SWEEP_GRID, "--out", out]
        check = lambda stdout: checks.sweep(stdout, out, labels, 1, want)  # noqa: E731
        return [Op(argv, check, out, units=len(labels))]

    return setup, round_


def eval_workload(b: Bench, seed: int):
    col = gen.generate(gen.CRAN, seed)
    paths = gen.write(col, os.path.join(b.work, "cran"))
    ref = reference.Reference(col.docs)
    runs = {q: ref.rank(col.queries[q]) for q in col.qrels}
    want = reference.summary({q: [d for d, _ in r] for q, r in runs.items()}, col.qrels)
    first = min(col.qrels)
    one = {first: col.qrels[first]}
    want_one = _reference_summary(ref, col, one)
    one_path = os.path.join(b.work, "cran", "qrels-one.rel")
    with open(one_path, "w", encoding="utf-8") as f:
        f.write("".join(f"{first} 0 {d} 1\n" for d in sorted(one[first])))
    probe = gen.probe()
    probe_paths = gen.write(probe, os.path.join(b.work, "probe"))
    want_probe = _reference_summary(reference.Reference(probe.docs), probe, probe.qrels)

    def setup():
        out = b.out_dir()
        argv = ["eval", *_inputs(dict(paths, qrels=one_path)), "--base", "10", "--out", out]
        return Op(argv, lambda stdout: checks.eval_(stdout, out, want_one, None, {}), out)

    def round_(i):
        out = b.out_dir()
        run_path = os.path.join(out, "run.tsv")
        argv = ["eval", *_inputs(paths), "--base", "10", "--out", out, "--save-run", run_path]
        check = lambda stdout: checks.eval_(stdout, out, want, run_path, runs)  # noqa: E731
        probe_out = b.out_dir()
        probe_argv = ["eval", *_inputs(probe_paths), "--base", "10", "--out", probe_out]
        probe_check = lambda stdout: checks.eval_(stdout, probe_out, want_probe, None, {})  # noqa: E731
        return [
            Op(argv, check, out, units=len(col.qrels)),
            Op(probe_argv, probe_check, probe_out, probe=True),
        ]

    return setup, round_


def index_search_workload(b: Bench, seed: int):
    col = gen.generate(gen.NPL, seed)
    paths = gen.write(col, os.path.join(b.work, "npl"))
    ref = reference.Reference(col.docs)
    query_ids = sorted(col.queries)
    ranked: dict[int, list] = {}
    snapshot = {}

    def setup():
        out = b.out_dir()
        # the snapshot outlives the command: the searches read the last one
        path = os.path.join(b.work, "npl", f"index-{os.path.basename(out)}.json")
        snapshot["path"] = path
        argv = ["index", "--docs", paths["docs"], "--save-index", path]
        check = lambda stdout: checks.index(stdout, path, len(col.docs), len(ref.postings))  # noqa: E731
        return Op(argv, check, out)

    def round_(i):
        qid = query_ids[i % len(query_ids)]
        if qid not in ranked:
            ranked[qid] = ref.rank(col.queries[qid])
        argv = ["search", "--load-index", snapshot["path"], "-k", str(SEARCH_K), col.query_text[qid]]
        check = lambda stdout: checks.search(stdout, ranked[qid], SEARCH_K)  # noqa: E731
        return [Op(argv, check, b.out_dir(), units=1)]

    return setup, round_


WORKLOADS = {
    "sweep": sweep_workload,
    "eval": eval_workload,
    "index-search": index_search_workload,
}


def measure(b: Bench, workload: str, seed: int, seconds: float) -> dict:
    setup, round_ = WORKLOADS[workload](b, seed)

    setup_walls = []
    setup_failed = 0
    for _ in range(SETUP_SAMPLES):
        op = setup()
        wall, problems = b.run(op, "setup")
        setup_walls.append(wall)
        setup_failed += bool(problems)
        b.unexpected += [f"set-up: {p}" for p in problems]

    attempted = failed = units = 0
    busy = 0.0
    i = 0
    while busy < seconds and b.elapsed() < LOOP_LIMIT_S and not b.unexpected:
        for op in round_(i):
            wall, problems = b.run(op, "timed")
            attempted += 1
            if problems:
                failed += 1
                if not op.probe:
                    b.unexpected += problems
                elif failed == 1:
                    print(f"probe failed as expected: {problems[0]}", file=sys.stderr)
            if op.units:
                busy += wall
                units += op.units
        i += 1
    if not attempted:  # set-up failed, so no round ran
        attempted, failed = SETUP_SAMPLES, setup_failed

    if b.trace:
        metrics = per_round(b.layers)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "throughput_per_s": {"value": units / busy if busy else 0.0, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(
        f"{workload} seed={seed}: {i} rounds, {attempted} commands ({failed} failed), "
        f"{units} work units in {busy:.2f} s busy ({units / busy if busy else 0:.4f}/s), set-up samples "
        f"{', '.join(f'{w:.3f}' for w in setup_walls)} s",
        file=sys.stderr,
    )
    if b.residuals:
        print(f"traced commands: largest |wall - start-up - self times| / wall = "
              f"{max(b.residuals):.2e}; self times below main cover "
              f"{min(b.covered):.1%} to {max(b.covered):.1%} of wall", file=sys.stderr)
    for problem in b.unexpected[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not b.unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "logbase_ir", "cli.py")):
        print("error: run from the root of a logbase-ir checkout (src/logbase_ir missing)",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = os.path.join(root, ".perfbench_work", tag)
    trace_dir = os.path.join(root, ".perfbench_work", "traces", tag)
    os.makedirs(work)
    if args.trace:
        os.makedirs(trace_dir)
    try:
        result = measure(Bench(root, work, bool(args.trace), trace_dir),
                         args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
