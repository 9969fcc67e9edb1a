"""The normal model: the reference set S plus its suffix index."""

from typing import Iterable

from .suffix_tree import GeneralizedSuffixIndex
from .traces import Sequence


class NormalModel:
    """Set of normal sequences with a generalized suffix index over them.

    Treated as immutable: each enrichment iteration builds
    ``NormalModel(train)`` from scratch, index included. The build is not
    cheap: on the benchmark's enrich workload it takes about half of the
    run, three times as long as the covering extractions it serves.
    """

    __slots__ = ("sequences", "index")

    def __init__(self, sequences: Iterable[Sequence] = ()):
        self.sequences: tuple[Sequence, ...] = tuple(sequences)
        self.index = GeneralizedSuffixIndex(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)
