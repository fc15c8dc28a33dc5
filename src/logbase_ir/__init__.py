"""Vector-space retrieval engine with a configurable IDF logarithm base.

The package indexes classic small test collections, ranks documents by
cosine similarity over TF-IDF weights whose IDF logarithm base is a free
parameter, evaluates rankings with 11-level precision/recall summaries, and
sweeps the base over a grid to compare weighting configurations.
"""

from .collection_io import (
    CollectionStats,
    ParseError,
    Qrels,
    RawDocument,
    RawQuery,
    collection_stats,
    parse_qrels,
    parse_queries,
    parse_smart,
)
from .evaluation import (
    EvalSummary,
    average_over_queries,
    evaluate_rankings,
    map11,
    map_at_30,
    pr_curve,
)
from .index import InvertedIndex, build_index
from .porter import stem as porter_stem
from .retrieval import RankedList, Ranker
from .sweep import BaseGrid, SweepResult, best_standard_worst, run_sweep, top_k_report
from .textpipe import default_stoplist, load_stoplist, pipeline, remove_stopwords, tokenize
from .weighting import (
    InvalidBaseError,
    WeightScheme,
    idf,
    weigh_query,
)

__version__ = "0.1.0"
