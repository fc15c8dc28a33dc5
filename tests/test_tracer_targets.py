"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps the package functions named in its
``TARGETS``; one that a change renames or deletes is skipped silently and
its per-layer metrics vanish from the benchmark report. The tracer is
run from its source by path, so nothing is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

from logbase_ir.evaluation import pr_curve
from logbase_ir.retrieval import RankedList

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_target_resolves(tracer):
    unresolved = []
    for mod_name, path, _kind in tracer.TARGETS:
        owner = importlib.import_module(f"logbase_ir.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{mod_name}.{path}")
    assert unresolved == []


def test_pr_curve_hook_counts_a_call(tracer):
    ranked = RankedList(3, ((1, 0.9), (2, 0.8)))
    args = (ranked, {2}, 1000)
    rec = tracer.Recorder()
    tracer.AFTER["evaluation.pr_curve"](rec, args, pr_curve(*args))
    assert rec.counts["pr_points"] > 0
    assert rec.distinct["rankings"] == {(3, (1, 2))}
