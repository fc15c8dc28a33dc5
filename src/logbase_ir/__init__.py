"""Vector-space retrieval engine with a configurable IDF logarithm base.

The package indexes classic small test collections, ranks documents by
cosine similarity over TF-IDF weights whose IDF logarithm base is a free
parameter, evaluates rankings with 11-level precision/recall summaries, and
sweeps the base over a grid to compare weighting configurations.

Each name is imported from the module that defines it (``logbase_ir.index``,
``logbase_ir.retrieval``, ...), so a command loads only the modules it runs.
"""

__version__ = "0.1.0"
