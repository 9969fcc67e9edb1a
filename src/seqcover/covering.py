"""Greedy covering extraction and the covering similarity.

A covering of a test sequence s is a contiguous partition of s into
segments, each of which is either a single symbol or a verbatim substring
of some normal sequence. Cutting s left to right, always taking the longest
admissible segment, yields a covering of provably minimal cardinality k,
and the similarity of s to the normal set is (|s| - k + 1) / |s|, exactly 1
for the empty sequence.

``greedy_cover`` is the extractor: one suffix-automaton walk
(``longest_match_from``) per segment, so extraction is linear in |s|.
``greedy_cover_binary`` returns the same segments with every break located
by a binary search of ``contains_range`` probes. It is an independent
reference that the tests and the benchmark's checks compare
``greedy_cover`` against; no option selects it. The shortest-path oracle
for the minimal k lives with the tests (``tests/oracles.py``).

Similarities are exact rationals (``fractions.Fraction``) so that ranking
by score never hinges on floating-point tie-breaking.
"""

from dataclasses import dataclass
from fractions import Fraction

from .model import NormalModel
from .traces import as_symbols


@dataclass(frozen=True)
class Covering:
    """Contiguous, exhaustive partition of a sequence into admissible
    segments, stored as half-open (start, end) index pairs."""

    segments: tuple[tuple[int, int], ...]
    covered_length: int

    @property
    def size(self) -> int:
        return len(self.segments)

    @property
    def similarity(self) -> Fraction:
        """(|s| - k + 1) / |s| for a covering of size k of s.

        Exactly 1 for the empty covering of the empty sequence; 1/|s| when
        every segment is a single symbol.
        """
        n = self.covered_length
        if n == 0:
            return Fraction(1)
        return Fraction(n - self.size + 1, n)


def greedy_cover(model: NormalModel, s) -> Covering:
    """Left-to-right greedy covering, each segment maximally extended.

    One suffix-automaton walk per segment: the walk consumes each symbol of s
    at most once, so extraction is linear in |s|. The empty sequence gets the
    empty covering, whose similarity is 1.
    """
    symbols = as_symbols(s)
    n = len(symbols)
    index = model.index
    segments = []
    start = 0
    while start < n:
        length = index.longest_match_from(symbols, start)
        segments.append((start, start + length))
        start += length
    return Covering(tuple(segments), n)


# The name under which the reference checks compare the walk to the binary search.
greedy_cover_linear = greedy_cover


def greedy_cover_binary(model: NormalModel, s) -> Covering:
    """Greedy covering with each break located by binary search.

    Returns exactly the same segments as ``greedy_cover``. The break after
    start is the largest t with s[start:t] admissible; t = start + 1 always
    is, and admissibility is monotone in t because substring membership is
    closed under prefixes. Worst case O(k * |s| * log|s|) for size k.
    """
    symbols = as_symbols(s)
    n = len(symbols)
    index = model.index
    segments = []
    start = 0
    while start < n:
        lo, hi = start + 1, n
        while lo < hi:
            mid = (lo + hi + 1) // 2  # mid - start >= 2: never the single-symbol case
            if index.contains_range(symbols, start, mid):
                lo = mid
            else:
                hi = mid - 1
        segments.append((start, lo))
        start = lo
    return Covering(tuple(segments), n)


def covering_similarity(model: NormalModel, s) -> Fraction:
    """Similarity of s to the model's sequence set: ``Covering.similarity``
    of its greedy covering, 1 for the empty sequence.

    1/|s| when nothing longer than a single symbol matches (in particular
    against an empty model, where the substring pool degenerates to the
    bare alphabet).
    """
    return greedy_cover(model, s).similarity


def pairwise_similarity(s1, s2) -> Fraction:
    """Symmetrized covering similarity between two sequences.

    Average of covering s1 with substrings of s2 and vice versa; always
    positive. It is 1 exactly when the sequences are equal or neither has
    more than one symbol, since every single symbol is an admissible
    segment: ``pairwise_similarity([1], [2]) == 1``.
    """
    a = as_symbols(s1)
    b = as_symbols(s2)
    forward = covering_similarity(NormalModel((b,)), a)
    backward = covering_similarity(NormalModel((a,)), b)
    return Fraction(1, 2) * (forward + backward)


def ratio_str(value: Fraction) -> str:
    """Render an exact similarity as ``numerator/denominator``."""
    return f"{value.numerator}/{value.denominator}"
