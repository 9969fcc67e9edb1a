"""Instance-selection loop growing the normal model from validation data.

Protocol per iteration: bring the model up to the current training set,
score every remaining normal validation sequence and every attack sequence,
record separability (AUC, attacks positive, anomaly score = 1 - similarity),
then move the worst-scoring normals into the training set. Repeats until
the stop rule fires, or until the validation pool is exhausted, in which
case the trace is flagged as truncated.

The SC4ID model is built once per run and extended with each batch moved
into training, which indexes exactly what a fresh build over the training
set would. Only normal data ever enters the model; attacks are scored but
never selected. The AUC is recorded twice: over all attacks, and excluding
attacks whose similarity is exactly 1 at that iteration (attacks that are
verbatim substrings of the training data, which no history-based score can
separate).
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .baselines import BaselineKind, nearest_similarity_to_set
from .detector import DetectorConfig, ScoredSequence, _as_fraction, anomaly_score, score_batch
from .errors import ConfigurationError
from .evaluation import auc_from_scores
from .model import NormalModel
from .traces import Dataset, Sequence

METHODS = ("SC4ID", "LEV", "LCSq", "LCSt")
_BASELINE_BY_METHOD = {"LEV": BaselineKind.LEV, "LCSq": BaselineKind.LCSQ, "LCSt": BaselineKind.LCST}


@dataclass(frozen=True)
class EnrichmentConfig:
    """Initial model, batch size, stop rule, RNG seed and time budget.

    ``init_fraction=None`` takes the dataset's training split as the initial
    model and its validation split as the pool; a value in (0, 1) pools both
    splits and draws that fraction of them at random. Exactly one stop rule
    must be set: the share of normal data in training (read as an exact
    rational) or an iteration count. ``time_budget_seconds`` (comparison
    runs) caps each method's wall-clock time after its first iteration.
    """

    init_fraction: float | None = None
    batch_size: int = 1
    stop_train_fraction: Fraction | float | None = Fraction(1, 2)
    stop_max_iterations: int | None = None
    rng_seed: int = 0
    time_budget_seconds: float | None = None

    def __post_init__(self):
        if self.init_fraction is not None and not 0 < self.init_fraction < 1:
            raise ConfigurationError(f"init_fraction must lie in (0, 1), got {self.init_fraction}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if (self.stop_train_fraction is None) == (self.stop_max_iterations is None):
            raise ConfigurationError("exactly one stop rule must be set")
        if self.stop_train_fraction is not None:
            fraction = _as_fraction(self.stop_train_fraction, "stop_train_fraction")
            if not 0 < fraction <= 1:
                raise ConfigurationError(f"stop_train_fraction must lie in (0, 1], got {self.stop_train_fraction}")
            object.__setattr__(self, "stop_train_fraction", fraction)
        if self.stop_max_iterations is not None and self.stop_max_iterations < 1:
            raise ConfigurationError("stop_max_iterations must be >= 1")
        # a nan budget compares False with every elapsed time and would never expire
        if self.time_budget_seconds is not None and not self.time_budget_seconds >= 0:
            raise ConfigurationError(f"time_budget_seconds must be >= 0, got {self.time_budget_seconds}")


@dataclass(frozen=True)
class EnrichmentRecord:
    iteration: int
    train_size: int
    train_fraction: Fraction
    auc: Fraction
    auc_excluding_exact_matches: Fraction | None
    elapsed_seconds: float
    added_source_ids: tuple[str, ...]


@dataclass(frozen=True)
class EnrichmentTrace:
    """Per-iteration records plus run-level flags.

    ``truncated``: the pool was exhausted before the stop rule fired.
    ``aborted``: the per-method time budget expired (comparison runs).
    """

    method: str
    records: tuple[EnrichmentRecord, ...]
    total_normals: int
    truncated: bool = False
    aborted: bool = False


def select_worst_k(scored: list[ScoredSequence], k: int) -> list[ScoredSequence]:
    """The min(k, len) items with the lowest similarity; ties break toward
    the lexicographically smaller source_id for determinism."""
    if not scored:
        raise ValueError("select_worst_k over an empty scored list")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(scored, key=lambda item: (item.similarity, item.source_id))
    return ranked[: min(k, len(ranked))]


def _initial_split(dataset: Dataset, config: EnrichmentConfig) -> tuple[list[Sequence], list[Sequence]]:
    """The initial training set and pool, after every check that depends on
    the data; the CLI calls it before it writes anything."""
    if not dataset.attacks:
        raise ConfigurationError("no attack sequences to evaluate against")
    ids = [seq.source_id for seq in dataset.normal_train + dataset.normal_validation]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("normal sequences need unique source_ids for deterministic selection")
    if config.init_fraction is None:
        train, rest = list(dataset.normal_train), list(dataset.normal_validation)
    else:
        pool = list(dataset.normal_train) + list(dataset.normal_validation)
        if len(pool) < 2:
            raise ConfigurationError("random initialization needs at least two normal sequences")
        # always leave something to enrich from
        count = max(1, min(round(config.init_fraction * len(pool)), len(pool) - 1))
        rng = random.Random(config.rng_seed)
        chosen = set(rng.sample(range(len(pool)), count))
        train = [pool[i] for i in sorted(chosen)]
        rest = [pool[i] for i in range(len(pool)) if i not in chosen]
    if not train:
        raise ConfigurationError("initial training set is empty")
    return train, rest


class _BudgetExpired(Exception):
    """The per-method time budget ran out while an iteration was being scored."""


def _within_budget(batch: list[Sequence], expired: Callable[[], bool] | None):
    """The batch, checking the budget before each sequence when one is set."""
    for seq in batch:
        if expired is not None and expired():
            raise _BudgetExpired
        yield seq


def _score(method: str, reference: NormalModel | list[Sequence], sigma: DetectorConfig,
           pool: list[Sequence], attacks: list[Sequence],
           expired: Callable[[], bool] | None = None) -> tuple[list[ScoredSequence], list[ScoredSequence]]:
    """Score the pool and the attacks against the training set: its model
    for SC4ID, the training list itself for a baseline.

    ``expired`` (if given) is asked before each sequence; once it answers
    True, ``_BudgetExpired`` abandons the iteration.
    """
    if method == "SC4ID":
        return (score_batch(reference, sigma, _within_budget(pool, expired)),
                score_batch(reference, sigma, _within_budget(attacks, expired)))
    kind = _BASELINE_BY_METHOD[method]

    def score(batch: list[Sequence]) -> list[ScoredSequence]:
        out = []
        for seq in _within_budget(batch, expired):
            similarity = nearest_similarity_to_set(kind, reference, seq)
            out.append(ScoredSequence(seq.source_id, similarity, None, sigma.verdict(similarity)))
        return out

    return score(pool), score(attacks)


def run_enrichment(
    dataset: Dataset,
    config: EnrichmentConfig,
    method: str = "SC4ID",
    on_iteration: Callable[[EnrichmentRecord, list[ScoredSequence], list[ScoredSequence]], None] | None = None,
) -> EnrichmentTrace:
    """Run the enrichment loop and return its full trace.

    ``on_iteration`` (if given) receives each record together with the
    iteration's scored pool and scored attacks, in order; the CLI uses it to
    emit per-iteration ROC and histogram files without the trace having to
    retain every score.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    train, pool = _initial_split(dataset, config)
    attacks = list(dataset.attacks)

    total_normals = len(train) + len(pool)
    sigma = DetectorConfig()

    records: list[EnrichmentRecord] = []
    truncated = False
    aborted = False
    iteration = 0
    model: NormalModel | None = None
    run_started = time.perf_counter()

    def budget_expired() -> bool:
        return time.perf_counter() - run_started > config.time_budget_seconds

    while True:
        if not pool:
            truncated = True  # nothing left to score or to select from
            break
        # the initial evaluation always runs; the budget gates the rest, both
        # before an iteration and before each sequence it scores, and an
        # iteration cut short is dropped
        expired = budget_expired if config.time_budget_seconds is not None and records else None
        if expired is not None and expired():
            aborted = True
            break

        step_started = time.perf_counter()
        train_size = len(train)
        reference: NormalModel | list[Sequence] = train
        if method == "SC4ID":
            # one index per run: each step appends what the previous one moved
            if model is None:
                model = NormalModel(train)
            else:
                model.extend(train[len(model):])
            reference = model
        try:
            scored_pool, scored_attacks = _score(method, reference, sigma, pool, attacks, expired)
        except _BudgetExpired:
            aborted = True
            break

        normal_anomaly = [anomaly_score(item.similarity) for item in scored_pool]
        attack_anomaly = [anomaly_score(item.similarity) for item in scored_attacks]
        auc_all = auc_from_scores(normal_anomaly, attack_anomaly)
        separable = [score for item, score in zip(scored_attacks, attack_anomaly) if item.similarity != 1]
        auc_excl = auc_from_scores(normal_anomaly, separable) if separable else None
        elapsed = time.perf_counter() - step_started

        if config.stop_max_iterations is not None:
            stop = iteration + 1 >= config.stop_max_iterations
        else:
            stop = Fraction(train_size, total_normals) >= config.stop_train_fraction

        added: tuple[str, ...] = ()
        if not stop:
            worst = select_worst_k(scored_pool, min(config.batch_size, len(scored_pool)))
            added = tuple(item.source_id for item in worst)
            added_set = set(added)
            by_id = {seq.source_id: seq for seq in pool}
            train.extend(by_id[source_id] for source_id in added)
            pool = [seq for seq in pool if seq.source_id not in added_set]

        record = EnrichmentRecord(
            iteration=iteration,
            train_size=train_size,
            train_fraction=Fraction(train_size, total_normals),
            auc=auc_all,
            auc_excluding_exact_matches=auc_excl,
            elapsed_seconds=elapsed,
            added_source_ids=added,
        )
        records.append(record)
        if on_iteration is not None:
            on_iteration(record, scored_pool, scored_attacks)
        if stop:
            break
        iteration += 1

    return EnrichmentTrace(
        method=method,
        records=tuple(records),
        total_normals=total_normals,
        truncated=truncated,
        aborted=aborted,
    )
