"""Shared fixtures: toy corpora, optional real-collection discovery and the
benchmark's modules."""

import functools
import os
import sys
import types
from pathlib import Path

import pytest

from logbase_ir.index import build_index

# Real collections are not bundled; point LOGBASE_IR_DATA at a directory
# holding them (or use ./data) to enable the collection-dependent tests.
_CANDIDATE_NAMES = {
    "med_docs": ["MED.ALL", "med.all", "MED.all"],
    "med_queries": ["MED.QRY", "med.qry"],
    "med_qrels": ["MED.REL", "med.rel"],
    "cran_docs": ["cran.all.1400", "CRAN.ALL.1400", "cran.all"],
    "cran_queries": ["cran.qry", "CRAN.QRY"],
    "cran_qrels": ["cranqrel", "CRANQREL"],
    "npl_docs": ["doc-text", "npl-doc-text"],
    "lisa_docs": ["LISA.ALL", "lisa.all"],
    "cisi_docs": ["CISI.ALL", "cisi.all"],
}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def perfbench(name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` run from its source by path, so nothing is
    written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def data_dir() -> Path | None:
    env = os.environ.get("LOGBASE_IR_DATA")
    candidates = [Path(env)] if env else []
    candidates.append(Path("data"))
    for c in candidates:
        if c.is_dir():
            return c
    return None


def find_collection_file(key: str) -> Path | None:
    root = data_dir()
    if root is None:
        return None
    for name in _CANDIDATE_NAMES[key]:
        for hit in sorted(root.rglob(name)):
            if hit.is_file():
                return hit
    return None


def require_collection_file(key: str) -> Path:
    path = find_collection_file(key)
    if path is None:
        pytest.skip(
            f"collection file for {key!r} not found; set LOGBASE_IR_DATA "
            "or place the files under ./data"
        )
    return path


@pytest.fixture
def toy_index():
    """Five tiny documents over a handful of terms."""
    docs = [
        (1, ["apple", "banana", "apple", "cherry"]),
        (2, ["banana", "cherry"]),
        (3, ["cherry", "date", "date"]),
        (4, ["apple", "date", "elder", "fig"]),
        (5, ["fig"]),
    ]
    return build_index(docs)


class CountedPostings(dict):
    """A built index's dictionary that counts its ``items()`` calls: each is
    one pass over every posting, as ``InvertedIndex.term_vectors`` makes."""

    passes = 0

    def items(self):
        self.passes += 1
        return super().items()


def count_passes(index):
    """Put ``index.dictionary`` in a ``CountedPostings``, and return that."""
    index.dictionary = CountedPostings(index.dictionary)
    return index.dictionary
