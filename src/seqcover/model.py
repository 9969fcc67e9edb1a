"""The normal model: the suffix index over the reference set S."""

from typing import Iterable

from .suffix_tree import GeneralizedSuffixIndex
from .traces import Sequence


def NormalModel(sequences: Iterable[Sequence] = ()) -> GeneralizedSuffixIndex:
    """The model of S: the generalized suffix index of its sequences.

    Scoring only reads a model. ``extend`` appends sequences to the index in
    place, giving the index a fresh build over all of S would give;
    enrichment builds one model per run and extends it with each batch it
    moves into training. The model keeps no copy of S.
    """
    # not an alias: the bench's probe replaces this global and counts each call
    return GeneralizedSuffixIndex(sequences)
