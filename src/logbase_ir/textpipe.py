"""Text pipeline: tokenize, drop stopwords, stem.

The index term alphabet is [a-z0-9]. A token is a maximal run of ASCII
letters and digits, lowercased; every other character, non-ASCII ones
included, separates tokens, so hyphenated and punctuated forms break apart
before any filtering happens. Every input file (collection, queries, qrels,
config, stoplist) ends its lines at "\n" only, and a "\r" before it is
whitespace to every reader of lines, so "\r\n" ends lines alike.
"""

import hashlib
from functools import lru_cache
from importlib import resources

from .porter import stem as porter_stem

# The identity of the terms made from an input's bytes. A snapshot records
# it and a load refuses any other; the sweep's resume cache is keyed on it.
# Bump it with any change to a reader, the tokenizer or the stemmer that
# changes a term; tests pin the terms of the Porter fixture words and of a
# benchmark index to it.
PIPELINE_VERSION = 1

# A-Z to a-z, a-z and 0-9 kept, every other byte to a space
_TOKEN_BYTES = bytes(b if chr(b).isalnum() else 32 for b in range(128)).lower().ljust(256)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase alphanumeric tokens, order preserved.

    The text is encoded as ASCII with every other character as "?", the
    bytes go through ``_TOKEN_BYTES`` and the result is split, all in C. So
    a non-ASCII character separates tokens even where it lowercases to an
    ASCII letter (the Kelvin sign to "k").
    """
    return text.encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()


def parse_stoplist(text: str) -> frozenset[str]:
    """The words of a stoplist text: one word per line, ``#`` starts a
    comment. Every line is run through the tokenizer, so entries are
    lowercase alphanumeric and punctuated forms degrade predictably."""
    words: set[str] = set()
    for line in text.split("\n"):
        words.update(tokenize(line.split("#", 1)[0]))
    return frozenset(words)


@lru_cache(maxsize=1)
def default_stoplist() -> frozenset[str]:
    """The bundled classic English stoplist."""
    data = (resources.files("logbase_ir") / "data" / "stopwords.txt").read_bytes()
    return parse_stoplist(data.decode("utf-8"))


def stoplist_fingerprint(stoplist: frozenset[str]) -> str:
    """sha256 of the sorted stoplist words, one per line."""
    return hashlib.sha256("\n".join(sorted(stoplist)).encode("utf-8")).hexdigest()


class _Terms(dict):
    """Surface token -> index term, or None for a stopword. A token missing
    from the map is looked up once, when it is first seen: ``porter_stem`` is
    read from this module at that moment, so a wrapper put in its place sees
    each distinct word once."""

    __slots__ = ("stoplist",)

    def __init__(self, stoplist: frozenset[str]):
        super().__init__()
        self.stoplist = stoplist

    def __missing__(self, token: str) -> str | None:
        term = self[token] = None if token in self.stoplist else porter_stem(token)
        return term


@lru_cache(maxsize=4)
def _terms(stoplist: frozenset[str]) -> _Terms:
    """The term map of a stoplist, shared by every pipeline call with it."""
    return _Terms(stoplist)


def pipeline(text: str, stoplist: frozenset[str] | None = None) -> list[str]:
    """Produce index terms: tokenize, remove stopwords, then stem.

    Stopword removal happens before stemming so stoplist entries match the
    surface forms they were written for. Each token goes through the
    stoplist's term map; a stem is never empty (every Porter rule leaves at
    least one letter), so ``filter(None, ...)`` drops exactly the stopwords.
    """
    if stoplist is None:
        stoplist = default_stoplist()
    return list(filter(None, map(_terms(stoplist).__getitem__, tokenize(text))))
