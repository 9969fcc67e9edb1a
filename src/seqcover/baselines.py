"""Classical string similarities used as comparison points.

Levenshtein (LEV), longest common subsequence (LCSq, gaps allowed) and
longest common substring (LCSt, contiguous), each normalized into [0, 1]
by the longer length: 1 - LEV(a, b) / max(|a|, |b|), and LCSq(a, b) or
LCSt(a, b) over max(|a|, |b|). Two empty sequences score 1. Against a set
of normal sequences the score is the similarity to the nearest member.

Each kernel prepares one side, ``a`` (n symbols), once and then reads the
other side, ``b`` (m symbols), symbol by symbol:

  * LEV  -- the bit-vector edit distance of Myers (1999) in Hyyrö's (2001)
            formulation: one column of the DP table is a pair of n-bit
            vectors of +1/-1 vertical deltas.
  * LCSq -- the bit-vector LCS of Allison & Dix (1986) in Hyyrö's (2004)
            formulation: one n-bit vector marks where a DP column does not
            step up.
  * LCSt -- the suffix index of a, asked for the longest run of b it
            holds (``longest_common_substring``): O(n + m).

Both bit-vector kernels cost about ceil(n/w) * m word operations (w the
machine word), done as a few Python big-int operations per symbol of b.
Python ints are unbounded, so the results are the exact integers of the
quadratic dynamic programs, with no limit on n.
"""

from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence as PySequence

from .errors import ConfigurationError
from .suffix_tree import GeneralizedSuffixIndex
from .traces import as_symbols


class BaselineKind(Enum):
    LEV = "LEV"
    LCSQ = "LCSq"
    LCST = "LCSt"


def _match_masks(a: PySequence) -> dict:
    """``masks[c]`` has bit i set iff ``a[i] == c``."""
    positions: dict = {}
    for i, c in enumerate(a):
        positions.setdefault(c, []).append(i)
    return {c: sum(1 << i for i in where) for c, where in positions.items()}


def _levenshtein_to(a: PySequence) -> Callable[[PySequence], int]:
    """``b -> edit distance(a, b)``, with a's match masks built once."""
    n = len(a)
    if not n:
        return len
    masks = _match_masks(a)
    full = (1 << n) - 1
    top = 1 << (n - 1)

    def distance(b: PySequence) -> int:
        get = masks.get
        pv, mv, score = full, 0, n  # vertical deltas of column 0 are all +1
        for c in b:
            eq = get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            # complements are taken within the n bits by xor with full; no
            # operation moves a bit downward, so bits above n-1 (carries,
            # shifts) never reach the ones read, and masking pv bounds them
            ph = mv | ((xh | pv) ^ full)
            mh = pv & xh
            if ph & top:
                score += 1
            elif mh & top:
                score -= 1
            ph = (ph << 1) | 1  # row 0 of the table is 0, 1, 2, ...
            mh <<= 1
            pv = (mh | ((xv | ph) ^ full)) & full
            mv = ph & xv
        return score

    return distance


def _lcsq_to(a: PySequence) -> Callable[[PySequence], int]:
    """``b -> LCSq(a, b)``, with a's match masks built once."""
    n = len(a)
    masks = _match_masks(a)
    full = (1 << n) - 1

    def length(b: PySequence) -> int:
        get = masks.get
        v = full
        for c in b:
            u = v & get(c, 0)
            # carries above bit n-1 never reach back down; drop them at the end
            v = (v + u) | (v - u)
        return n - (v & full).bit_count()

    return length


def _lcst_to(a: PySequence) -> Callable[[PySequence], int]:
    """``b -> LCSt(a, b)``, with the suffix index of a built once."""
    return GeneralizedSuffixIndex((a,)).longest_common_substring


def _similarity_to(kind: BaselineKind, query) -> Callable[..., Fraction]:
    """``reference -> similarity(query, reference)`` for one baseline.

    The query's masks or automaton are built here, once, so scoring a query
    against a whole reference set pays for them once. Two empty sequences
    score 1 under every kind.
    """
    a = as_symbols(query)
    n = len(a)
    if kind is BaselineKind.LEV:
        distance = _levenshtein_to(a)

        def value(b):
            return 1 - Fraction(distance(b), max(n, len(b)))
    elif kind is BaselineKind.LCSQ or kind is BaselineKind.LCST:
        common = (_lcsq_to if kind is BaselineKind.LCSQ else _lcst_to)(a)

        def value(b):
            return Fraction(common(b), max(n, len(b)))
    else:
        raise ConfigurationError(f"unknown baseline kind {kind!r}")

    def similarity(reference) -> Fraction:
        b = as_symbols(reference)
        return value(b) if n or b else Fraction(1)

    return similarity


def pairwise_baseline(kind: BaselineKind, s1, s2) -> Fraction:
    """The baseline similarity of two sequences, in [0, 1]; 1 for two empties."""
    return _similarity_to(kind, s1)(s2)


def nearest_similarity_to_set(kind: BaselineKind, model_sequences: Iterable, s) -> Fraction:
    """Similarity of s to the closest member of the normal set (max over members).

    The max decomposes over any split of the set: the value over S + B is
    max(value over S, value over B). So a caller whose set only grows can
    keep the value over S and score s against the appended B alone, with
    the same exact result.
    """
    best = max(map(_similarity_to(kind, s), model_sequences), default=None)
    if best is None:
        raise ConfigurationError("nearest-similarity scoring needs a non-empty normal set")
    return best
