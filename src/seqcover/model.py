"""The normal model: the suffix index over the reference set S."""

from typing import Iterable

from .suffix_tree import GeneralizedSuffixIndex
from .traces import Sequence


class NormalModel:
    """A generalized suffix index over a set of normal sequences.

    Scoring only reads a model. ``extend`` appends sequences to the index in
    place; enrichment builds one model per run and extends it with each
    batch it moves into training, instead of rebuilding the index over the
    whole training set every iteration. The model keeps no copy of S.
    """

    __slots__ = ("index",)

    def __init__(self, sequences: Iterable[Sequence] = ()):
        self.index = GeneralizedSuffixIndex(sequences)

    def extend(self, sequences: Iterable[Sequence]) -> None:
        """Add sequences to S; the index then equals a fresh build over all of S."""
        self.index.extend(sequences)
