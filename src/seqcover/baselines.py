"""Classical string similarities used as comparison points.

Levenshtein (LEV), longest common subsequence (LCSq, gaps allowed) and
longest common substring (LCSt, contiguous), each normalized into [0, 1].
Against a set of normal sequences the score is the similarity to the
nearest member.
"""

from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence as PySequence

from .errors import ConfigurationError
from .suffix_tree import GeneralizedSuffixIndex
from .traces import as_symbols


class BaselineKind(Enum):
    LEV = "LEV"
    LCSQ = "LCSq"
    LCST = "LCSt"


def levenshtein_distance(a: PySequence, b: PySequence) -> int:
    """Unit-cost edit distance, two-row dynamic program (O(min(n,m)) memory)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a):
        current = [i + 1]
        for j, y in enumerate(b):
            current.append(min(
                previous[j + 1] + 1,        # deletion
                current[j] + 1,             # insertion
                previous[j] + (x != y),     # substitution / match
            ))
        previous = current
    return previous[-1]


def lcsq_length(a: PySequence, b: PySequence) -> int:
    """Length of a longest (gapped) common subsequence, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b):
            if x == y:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


def lcst_length(a: PySequence, b: PySequence) -> int:
    """Length of the longest contiguous common substring in O(n + m):
    stream b through the suffix automaton of a, falling back along suffix
    links on a mismatch."""
    if not a or not b:
        return 0
    index = GeneralizedSuffixIndex((a,))
    nxt, link, length = index.next, index.link, index.length
    state = 0
    matched = 0
    best = 0
    for c in b:
        while state and c not in nxt[state]:
            state = link[state]
            matched = length[state]
        if c in nxt[state]:
            state = nxt[state][c]
            matched += 1
            if matched > best:
                best = matched
        else:
            state = 0
            matched = 0
    return best


def _normalizer(n: int, m: int, norm: str) -> int:
    if norm == "max":
        return max(n, m)
    if norm == "sum":
        return n + m
    raise ConfigurationError(f"unknown LEV normalization {norm!r} (use 'max' or 'sum')")


def lev_similarity(s1, s2, norm: str = "max") -> Fraction:
    """1 - LEV(s1, s2) / max(|s1|, |s2|), in [0, 1]; 1 for two empties.

    ``norm='sum'`` divides by |s1| + |s2| instead (looser normalization some
    write-ups use; rankings between fixed sequences are unaffected).
    """
    a, b = as_symbols(s1), as_symbols(s2)
    if not a and not b:
        return Fraction(1)
    return 1 - Fraction(levenshtein_distance(a, b), _normalizer(len(a), len(b), norm))


def lcsq_similarity(s1, s2) -> Fraction:
    """LCSq(s1, s2) / max(|s1|, |s2|); 1 for two empties."""
    a, b = as_symbols(s1), as_symbols(s2)
    if not a and not b:
        return Fraction(1)
    return Fraction(lcsq_length(a, b), max(len(a), len(b)))


def lcst_similarity(s1, s2) -> Fraction:
    """LCSt(s1, s2) / max(|s1|, |s2|); 1 for two empties."""
    a, b = as_symbols(s1), as_symbols(s2)
    if not a and not b:
        return Fraction(1)
    return Fraction(lcst_length(a, b), max(len(a), len(b)))


def pairwise_baseline(kind: BaselineKind, s1, s2, lev_norm: str = "max") -> Fraction:
    if kind is BaselineKind.LEV:
        return lev_similarity(s1, s2, norm=lev_norm)
    if kind is BaselineKind.LCSQ:
        return lcsq_similarity(s1, s2)
    if kind is BaselineKind.LCST:
        return lcst_similarity(s1, s2)
    raise ConfigurationError(f"unknown baseline kind {kind!r}")


def nearest_similarity_to_set(
    kind: BaselineKind, model_sequences: Iterable, s, lev_norm: str = "max"
) -> Fraction:
    """Similarity of s to the closest member of the normal set (max over members)."""
    best: Fraction | None = None
    for ref in model_sequences:
        value = pairwise_baseline(kind, s, ref, lev_norm=lev_norm)
        if best is None or value > best:
            best = value
    if best is None:
        raise ConfigurationError("nearest-similarity scoring needs a non-empty normal set")
    return best
