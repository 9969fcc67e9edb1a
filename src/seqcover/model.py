"""The normal model: the reference set S plus its suffix index."""

from typing import Iterable

from .suffix_tree import GeneralizedSuffixIndex
from .traces import Sequence


class NormalModel:
    """Set of normal sequences with a generalized suffix index over them.

    Scoring only reads a model. ``extend`` grows S in place, sequences and
    index together; enrichment builds one model per run and extends it with
    each batch it moves into training, instead of rebuilding the index over
    the whole training set every iteration.
    """

    __slots__ = ("sequences", "index")

    def __init__(self, sequences: Iterable[Sequence] = ()):
        self.sequences: tuple[Sequence, ...] = tuple(sequences)
        self.index = GeneralizedSuffixIndex(self.sequences)

    def extend(self, sequences: Iterable[Sequence]) -> None:
        """Add sequences to S; the index then equals a fresh build over all of S."""
        added = tuple(sequences)
        self.sequences += added
        self.index.extend(added)

    def __len__(self) -> int:
        return len(self.sequences)
