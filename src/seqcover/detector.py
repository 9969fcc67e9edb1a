"""Score-and-threshold decision procedure over the normal model."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .covering import Covering, greedy_cover, ratio_str
from .errors import ConfigurationError
from .model import NormalModel
from .traces import Sequence

NORMAL = "normal"
ANOMALY = "anomaly"


def _as_fraction(value, name: str) -> Fraction:
    """The setting ``name`` as an exact rational.

    A float is read as its decimal rendering: sigma=0.97 means 97/100. A
    value with no finite rational (nan, inf, a non-numeric string) raises
    ``ConfigurationError`` with the field ``name``.
    """
    try:
        return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (ValueError, TypeError, OverflowError):
        raise ConfigurationError(f"must be a finite number, got {value!r}", name) from None


@dataclass(frozen=True)
class DetectorConfig:
    """Decision threshold sigma in [0, 1]; similarity >= sigma is normal.

    0.97 is a sensible default for system-call traces (coverings no larger
    than a few percent of the sequence); fine-tuning is application work.
    """

    sigma: Fraction = Fraction(97, 100)

    def __post_init__(self):
        sigma = _as_fraction(self.sigma, "sigma")
        if not 0 <= sigma <= 1:
            raise ConfigurationError(f"must lie in [0, 1], got {self.sigma}", "sigma")
        object.__setattr__(self, "sigma", sigma)

    def verdict(self, similarity: Fraction) -> str:
        """NORMAL when similarity >= sigma, else ANOMALY."""
        return NORMAL if similarity >= self.sigma else ANOMALY


@dataclass(frozen=True)
class ScoredSequence:
    """A scored test sequence; the covering doubles as anomaly localization.

    ``covering`` is None when the score came from a baseline similarity,
    which has no covering to attach.
    """

    source_id: str
    similarity: Fraction
    covering: Covering | None
    verdict: str

    def as_record(self) -> dict:
        """One JSON-ready record per sequence."""
        return {
            "source_id": self.source_id,
            "similarity": ratio_str(self.similarity),
            "similarity_decimal": f"{float(self.similarity):.6f}",
            "covering_size": self.covering.size if self.covering else None,
            "segments": [list(seg) for seg in self.covering.segments] if self.covering else None,
            "verdict": self.verdict,
        }


def anomaly_score(similarity: Fraction) -> Fraction:
    """Ranking score for evaluation: higher means more anomalous."""
    return 1 - similarity


def classify(model: NormalModel, config: DetectorConfig, s: Sequence) -> ScoredSequence:
    """Cover s against the model, score it, and apply the threshold.

    The empty sequence scores 1 by convention (it is a substring of
    anything), with an empty covering attached.
    """
    cover = greedy_cover(model, s)
    similarity = cover.similarity
    source_id = getattr(s, "source_id", "")
    return ScoredSequence(source_id, similarity, cover, config.verdict(similarity))


def score_batch(model: NormalModel, config: DetectorConfig, batch) -> list[ScoredSequence]:
    """Element-wise classify, input order preserved."""
    return [classify(model, config, s) for s in batch]


def score_each(model: NormalModel, config: DetectorConfig, batch: list) -> Iterator[ScoredSequence]:
    """Classify the traces of batch in order, taking each out of the list as
    it is scored: the list ends empty, and a trace held nowhere else is freed
    once its score is handed over."""
    batch.reverse()
    while batch:
        yield classify(model, config, batch.pop())
