"""Checks on what a ``logbase-ir`` command printed and wrote.

Every check reads only the command's stdout and its report files, never an
index snapshot or an object of the program, so a change of the snapshot
format or of the in-memory index is still checked without editing the
benchmark. Each check returns a list of problems; an empty list passes.

Tolerances:

* ``TOL`` (1e-9) bounds the distance from the reference of any score,
  level precision or summary. Program and reference add the same numbers
  in different orders, which moves results by about 1e-16; a wrong weight
  or bucket moves them by far more than 1e-9.
* ``INVARIANCE_TOL`` (1e-12) bounds how far two ``sweep.csv`` rows may
  differ. A change of log base rescales every weight by one factor, which
  cosine cancels, so scores move only by rounding and every base ranks the
  same documents in the same order unless two scores lie within rounding
  of each other; no generated collection has such a pair (see README).
  Summaries computed from identical rankings are identical.
* A printed 6-decimal value may differ from the reference by half a unit
  in the last place.
"""

import csv
import os

TOL = 1e-9
INVARIANCE_TOL = 1e-12
PRINTED_TOL = 5e-7 + TOL
LEVEL_NAMES = [f"level_{k / 10:.1f}" for k in range(11)]


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def compare_summary(got: dict, want: dict, tol: float, where: str) -> list[str]:
    """Levels, map and map_at_30 of one summary against the reference."""
    problems = []
    pairs = list(zip(LEVEL_NAMES, got["levels"], want["levels"]))
    pairs += [("map", got["map"], want["map"]), ("map_at_30", got["map_at_30"], want["map_at_30"])]
    for name, g, w in pairs:
        if abs(g - w) > tol:
            problems.append(f"{where}: {name} is {g!r}, reference {w!r}")
    return problems


def compare_ranking(
    got: list[tuple[int, float]],
    want: list[tuple[int, float]],
    where: str,
    ref_score: dict[int, float] | None = None,
) -> list[str]:
    """A ranking against the reference, position by position.

    A different doc at a position passes only when its reference score ties
    the reference score at that position within TOL (documents whose scores
    agree to rounding may come in either order). Documents with exactly
    equal scores must come in ascending doc id order. ``ref_score`` holds
    the reference score of every candidate when ``want`` is only a prefix.
    """
    if len(got) != len(want):
        return [f"{where}: {len(got)} ranked documents, reference {len(want)}"]
    if ref_score is None:
        ref_score = dict(want)
    for i, ((doc, score), (want_doc, want_score)) in enumerate(zip(got, want), start=1):
        if abs(score - want_score) > TOL:
            return [f"{where}: rank {i} score {score!r}, reference {want_score!r}"]
        if doc != want_doc and abs(ref_score.get(doc, float("inf")) - want_score) > TOL:
            return [f"{where}: rank {i} is doc {doc}, reference doc {want_doc}"]
    for (d1, s1), (d2, s2) in zip(got, got[1:]):
        if s1 == s2 and d1 > d2:
            return [f"{where}: tied docs {d1} and {d2} not in ascending id order"]
    return []


def _csv_rows(path: str) -> list[dict] | None:
    text = _read(path)
    if text is None:
        return None
    return list(csv.DictReader(text.splitlines()))


def _row_summary(row: dict) -> dict:
    return {
        "levels": [float(row[name]) for name in LEVEL_NAMES],
        "map": float(row["map"]),
        "map_at_30": float(row["map_at_30"]),
    }


def sweep(stdout: str, out_dir: str, labels: list[str], skipped: int, want: dict) -> list[str]:
    """sweep: rows per base, base invariance, skipped bases, cache, reference."""
    problems = []
    line = f"sweep complete: {len(labels)} bases evaluated, {skipped} skipped"
    if line not in stdout:
        problems.append(f"stdout lacks {line!r}")
    rows = _csv_rows(os.path.join(out_dir, "sweep.csv"))
    if rows is None:
        return problems + ["sweep.csv missing"]
    got_labels = [row["base"] for row in rows]
    if got_labels != labels:
        problems.append(f"sweep.csv bases {got_labels[:3]}... differ from the grid")
    summaries = {row["base"]: _row_summary(row) for row in rows}
    if "10.0" not in summaries:
        return problems + ["sweep.csv has no base 10.0 row"]
    problems += compare_summary(summaries["10.0"], want, TOL, "sweep.csv base 10.0")
    first = summaries[got_labels[0]]
    for label, summary in summaries.items():
        problems += compare_summary(summary, first, INVARIANCE_TOL, f"base {label} vs {got_labels[0]}")
    cache = _read(os.path.join(out_dir, "sweep_cache.jsonl"))
    cache_lines = cache.splitlines() if cache is not None else []
    if len(cache_lines) != len(labels):
        problems.append(f"sweep_cache.jsonl has {len(cache_lines)} lines for {len(labels)} bases")
    return problems


def eval_(stdout: str, out_dir: str, want: dict, run_path: str | None, want_runs: dict) -> list[str]:
    """eval: printed summary, eval.csv and the run file against the reference."""
    problems = []
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    names = LEVEL_NAMES + ["map", "map_at_30"]
    if any(name not in printed for name in names):
        return [f"stdout lacks some of {names}"]
    printed_summary = {
        "levels": [printed[n] for n in LEVEL_NAMES],
        "map": printed["map"],
        "map_at_30": printed["map_at_30"],
    }
    problems += compare_summary(printed_summary, want, PRINTED_TOL, "stdout")
    rows = _csv_rows(os.path.join(out_dir, "eval.csv"))
    if not rows or len(rows) != 1:
        return problems + ["eval.csv missing or not one row"]
    problems += compare_summary(_row_summary(rows[0]), want, TOL, "eval.csv")
    if run_path is not None:
        problems += _run_file(run_path, want_runs)
    return problems


def _run_file(path: str, want_runs: dict) -> list[str]:
    text = _read(path)
    if text is None:
        return ["run file missing"]
    got: dict[int, list[tuple[int, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 4:
            return [f"run file line {lineno}: {len(parts)} fields"]
        qid, doc, rank = int(parts[0]), int(parts[1]), int(parts[2])
        entries = got.setdefault(qid, [])
        if rank != len(entries) + 1:
            return [f"run file line {lineno}: rank {rank} out of sequence"]
        entries.append((doc, float(parts[3])))
    problems = []
    for qid, want in sorted(want_runs.items()):
        if want:
            problems += compare_ranking(got.get(qid, []), want, f"run query {qid}")
        elif got.get(qid):
            problems.append(f"run query {qid}: ranked documents where the reference has none")
    extra = sorted(set(got) - set(want_runs))
    if extra:
        problems.append(f"run file has unknown queries {extra[:5]}")
    return problems


def index(stdout: str, snapshot: str, n_docs: int, n_terms: int) -> list[str]:
    """index --save-index: printed counts and a written snapshot."""
    problems = []
    want = f"documents={n_docs} distinct_terms={n_terms} "
    if want not in stdout:
        problems.append(f"stdout lacks {want!r}")
    if f"index snapshot written to {snapshot}" not in stdout or not os.path.isfile(snapshot):
        problems.append("no index snapshot written")
    return problems


def search(stdout: str, want: list[tuple[int, float]], k: int) -> list[str]:
    """search: the printed top k against the reference's top k."""
    got = []
    for position, line in enumerate(stdout.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != str(position):
            return [f"search output line {position} malformed: {line!r}"]
        got.append((int(parts[1]), float(parts[2])))
    want_top = want[:k]
    if len(got) != len(want_top):
        return [f"search printed {len(got)} results, reference {len(want_top)}"]
    # reference scores of all candidates, so a doc tied with the k-th
    # reference doc is accepted at the cut
    return compare_ranking(got, want_top, "search", dict(want))
