"""Vector-space retrieval engine with a configurable IDF logarithm base.

The package indexes classic small test collections, ranks documents by
cosine similarity over TF-IDF weights whose IDF logarithm base is a free
parameter, evaluates rankings with 11-level precision/recall summaries, and
sweeps the base over a grid to compare weighting configurations.

The names below are imported from their modules on first use (PEP 562), so
a command loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "collection_io": (
        "ParseError",
        "Qrels",
        "RawDocument",
        "RawQuery",
        "parse_qrels",
        "parse_queries",
        "parse_smart",
    ),
    "evaluation": (
        "EvalSummary",
        "average_over_queries",
        "evaluate_rankings",
        "map11",
        "map_at_30",
        "pr_curve",
    ),
    "index": ("InvertedIndex", "build_index"),
    "retrieval": ("RankedList", "Ranker"),
    "sweep": ("BaseGrid", "SweepResult", "best_standard_worst", "run_sweep", "top_k_report"),
    "textpipe": ("default_stoplist", "load_stoplist", "pipeline", "tokenize"),
    "weighting": ("InvalidBaseError", "WeightScheme", "idf", "weigh_query"),
}
# public name -> (module, attribute)
_ORIGIN = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_ORIGIN["porter_stem"] = ("porter", "stem")

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), attr)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
