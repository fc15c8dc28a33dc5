"""Porter suffix-stripping stemmer.

Implements the complete algorithm (steps 1a through 5b) in the form used by
the widely distributed reference implementations: words of length 1 or 2 are
returned unchanged, step 2 maps "bli" to "ble", and step 2 includes the
"logi" to "log" rule. One further published refinement is adopted in step 1c:
terminal y becomes i only when preceded by a consonant, so "playing" stems to
"play" rather than "plai" while "happy" still becomes "happi".

Every condition reads the word's consonant/vowel form (``_form``), one "c"
or "v" per letter: a, e, i, o and u are vowels, y is a vowel after a
consonant, and every other character is a consonant. The measure m of
[C](VC){m}[V] is the number of "vc" in the form.
"""

_VOWELS = frozenset("aeiou")


def _form(word: str) -> str:
    """The word's consonant/vowel form, one "c" or "v" per letter."""
    form = ""
    for ch in word:
        form += "v" if ch in _VOWELS or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _measure(stem: str) -> int:
    """The m of [C](VC){m}[V]."""
    return _form(stem).count("vc")


def _has_vowel(stem: str) -> bool:
    return "v" in _form(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _form(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant ending where the final consonant is not
    # w, x or y; used to decide whether to restore a trailing e
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word

    if word.endswith("ed") and _has_vowel(word[:-2]):
        stem = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stem = word[:-3]
    else:
        return word

    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y"):
        form = _form(word[:-1])
        if form.endswith("c") and "v" in form:
            return word[:-1] + "i"
    return word


# (suffix, replacement) pairs tried in order; first suffix match wins and the
# replacement applies only when the remaining stem has measure > 0.
_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _by_last_letter(rules, suffix=lambda rule: rule[0]) -> dict[str, tuple]:
    """The rules grouped by the last letter of their suffix, in list order
    within each group. Only a suffix that ends in a word's last letter can
    match it, so a step tries that letter's group alone and the first match
    in list order still wins."""
    groups: dict[str, tuple] = {}
    for rule in rules:
        last = suffix(rule)[-1]
        groups[last] = groups.get(last, ()) + (rule,)
    return groups


_STEP2 = _by_last_letter(_STEP2_RULES)
_STEP3 = _by_last_letter(_STEP3_RULES)
# When _step4 skips "ion", the flat list would go on to the later suffixes;
# none of them ends in "n", so none can match a word that "ion" ended.
_STEP4 = _by_last_letter(_STEP4_SUFFIXES, suffix=lambda s: s)


def _apply_rules(word: str, rules: dict[str, tuple]) -> str:
    for suffix, replacement in rules.get(word[-1], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4.get(word[-1], ()):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a lowercase word.

    Words shorter than 3 characters are returned unchanged. The text
    pipeline's term map calls it once per distinct word.
    """
    if len(word) < 3:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2)
    word = _apply_rules(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
