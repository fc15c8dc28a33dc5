"""Text pipeline: tokenize, drop stopwords, stem.

The index term alphabet is [a-z0-9]. Tokenization splits on every other
character, so hyphenated and punctuated forms break apart before any
filtering happens.
"""

import hashlib
import re
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .porter import stem as porter_stem

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric tokens, order preserved."""
    return [piece.lower() for piece in _TOKEN_RE.findall(text)]


def load_stoplist(path: str) -> frozenset[str]:
    """Read a stoplist file: one word per line, ``#`` starts a comment.

    Every line is run through the tokenizer, so entries are guaranteed to be
    lowercase alphanumeric and punctuated forms degrade predictably.
    """
    words: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0]
            words.update(tokenize(line))
    return frozenset(words)


@lru_cache(maxsize=1)
def default_stoplist() -> frozenset[str]:
    """The bundled classic English stoplist."""
    data = (resources.files("logbase_ir") / "data" / "stopwords.txt").read_text("utf-8")
    words: set[str] = set()
    for line in data.splitlines():
        words.update(tokenize(line.split("#", 1)[0]))
    return frozenset(words)


def stoplist_fingerprint(stoplist: frozenset[str]) -> str:
    """sha256 of the sorted stoplist words, one per line."""
    return hashlib.sha256("\n".join(sorted(stoplist)).encode("utf-8")).hexdigest()


def remove_stopwords(tokens: Iterable[str], stoplist: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stoplist]


def pipeline(text: str, stoplist: frozenset[str] | None = None) -> list[str]:
    """Produce index terms: tokenize, remove stopwords, then stem.

    Stopword removal happens before stemming so stoplist entries match the
    surface forms they were written for.
    """
    if stoplist is None:
        stoplist = default_stoplist()
    return [porter_stem(t) for t in remove_stopwords(tokenize(text), stoplist)]
