"""Instance-selection loop growing the normal model from validation data.

Protocol per iteration: bring the model up to the current training set,
score every remaining normal validation sequence and every attack sequence,
record separability (AUC, attacks positive, anomaly score = 1 - similarity),
then move the worst-scoring normals into the training set. Repeats until
the stop rule fires, or until the validation pool is exhausted, in which
case the trace is flagged as truncated.

Each method scores through one scorer per run, built from the initial
training set before the loop, inside the first iteration's time: SC4ID's
holds the suffix index NormalModel builds, a baseline's its own copy of the
training list and each query's best score so far. Right after an iteration
moves its batch, the scorer is extended with exactly that batch, inside the
next iteration's time. So SC4ID's index is the one a fresh build would
give, and a baseline scores each query only against the references added
since its cached best. The pool is a dict keyed by source_id, in load
order, and a moved sequence leaves it by ``pop``. The loop, not the scorer,
checks the time budget's deadline before each sequence it hands over, and
drops an iteration cut short. Only normal data enters training; attacks are
scored but never selected. The AUC is recorded twice: over all attacks, and
excluding attacks whose similarity is exactly 1 at that iteration (verbatim
substrings of the training data, which no history-based score can
separate).
"""

import heapq
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Iterable

from .baselines import BaselineKind, nearest_similarity_to_set
from .detector import DetectorConfig, ScoredSequence, _as_fraction, anomaly_score, score_batch
from .errors import ConfigurationError
from .evaluation import auc_from_scores
from .model import NormalModel
from .traces import Dataset, Sequence

_BASELINE_BY_METHOD = {kind.value: kind for kind in BaselineKind}
METHODS = ("SC4ID", *_BASELINE_BY_METHOD)


@dataclass(frozen=True)
class EnrichmentConfig:
    """Initial model, batch size, stop rule, RNG seed and time budget.

    ``init_fraction=None`` takes the dataset's training split as the initial
    model and its validation split as the pool; a value f in (0, 1) pools both
    splits and draws floor(f·n + 1/2) of their n traces at random. At most one
    stop rule may be set, the share of normal data in training or an iteration
    count; with neither, the run stops at half. Both fractions, as strings
    too, are read as exact rationals. ``time_budget_seconds`` (comparison
    runs), a finite number of seconds >= 0, as a string too, caps each
    method's wall-clock time after its first iteration.
    """

    init_fraction: Fraction | float | str | None = None
    batch_size: int = 1
    stop_train_fraction: Fraction | float | str | None = None
    stop_max_iterations: int | None = None
    rng_seed: int = 0
    time_budget_seconds: float | str | None = None

    def __post_init__(self):
        if self.init_fraction is not None:
            fraction = _as_fraction(self.init_fraction, "init_fraction")
            if not 0 < fraction < 1:
                raise ConfigurationError(f"must lie in (0, 1), got {self.init_fraction}", "init_fraction")
            object.__setattr__(self, "init_fraction", fraction)
        if self.batch_size < 1:
            raise ConfigurationError(f"must be >= 1, got {self.batch_size}", "batch_size")
        if self.stop_max_iterations is None:
            stop = Fraction(1, 2) if self.stop_train_fraction is None else self.stop_train_fraction
            fraction = _as_fraction(stop, "stop_train_fraction")
            if not 0 < fraction <= 1:
                raise ConfigurationError(f"must lie in (0, 1], got {stop}", "stop_train_fraction")
            object.__setattr__(self, "stop_train_fraction", fraction)
        elif self.stop_train_fraction is not None:
            raise ConfigurationError("are both set; at most one stop rule may be set",
                                     "stop_train_fraction", "stop_max_iterations")
        elif self.stop_max_iterations < 1:
            raise ConfigurationError(f"must be >= 1, got {self.stop_max_iterations}", "stop_max_iterations")
        if self.time_budget_seconds is not None:
            budget = self.time_budget_seconds
            try:
                seconds = float(budget)
            except (ValueError, TypeError):
                seconds = math.nan
            # a nan or infinite budget would never expire
            if not math.isfinite(seconds):
                raise ConfigurationError(f"must be a finite number, got {budget!r}", "time_budget_seconds")
            if seconds < 0:
                raise ConfigurationError(f"must be >= 0, got {budget}", "time_budget_seconds")
            object.__setattr__(self, "time_budget_seconds", seconds)


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
    truncated: bool = False
    aborted: bool = False


def select_worst_k(scored: list[ScoredSequence], k: int) -> list[ScoredSequence]:
    """The min(k, len) items with the lowest similarity, ascending; ties
    break toward the lexicographically smaller source_id for determinism.
    The same list as ``sorted(scored, key=...)[:k]``, without the full sort."""
    if not scored:
        raise ValueError("select_worst_k over an empty scored list")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return heapq.nsmallest(k, scored, key=lambda item: (item.similarity, item.source_id))


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
        # half up; always leave something to enrich from
        count = max(1, min(math.floor(config.init_fraction * len(pool) + Fraction(1, 2)), len(pool) - 1))
        rng = random.Random(config.rng_seed)
        chosen = set(rng.sample(range(len(pool)), count))
        train = [pool[i] for i in sorted(chosen)]
        rest = [pool[i] for i in range(len(pool)) if i not in chosen]
    if not train:
        raise ConfigurationError("initial training set is empty")
    if not rest:
        raise ConfigurationError("no normal sequences to score: pass --validation-dir or use --init random")
    return train, rest


class _CoveringScorer:
    """SC4ID: the covering similarity against one suffix index per run."""

    def __init__(self, sigma: DetectorConfig, train: list[Sequence]):
        self.sigma, self.model = sigma, NormalModel(train)

    def extend(self, batch: list[Sequence]) -> None:
        self.model.extend(batch)

    def score(self, seqs: Iterable[Sequence]) -> list[ScoredSequence]:
        return score_batch(self.model, self.sigma, seqs)


class _BaselineScorer:
    """LEV, LCSq or LCSt: the similarity to the nearest training sequence.

    The training list only grows, and the max over S + B is the larger of
    the maxes over S and over B. So the scorer keeps, per query content,
    the best similarity so far and how many references it covers, and
    scores a query only against the references appended since: each
    (query content, reference) pair is scored once per run.
    """

    def __init__(self, kind: BaselineKind, sigma: DetectorConfig, train: list[Sequence]):
        self.kind, self.sigma, self.references = kind, sigma, list(train)
        self.best: dict[tuple[int, ...], tuple[Fraction, int]] = {}

    def extend(self, batch: list[Sequence]) -> None:
        self.references.extend(batch)

    def _nearest(self, seq: Sequence) -> Fraction:
        best, seen = self.best.get(seq.symbols, (None, 0))
        if seen < len(self.references):
            new = nearest_similarity_to_set(self.kind, self.references[seen:], seq)
            best = new if best is None else max(best, new)
            self.best[seq.symbols] = best, len(self.references)
        return best

    def score(self, seqs: Iterable[Sequence]) -> list[ScoredSequence]:
        scored = [(seq.source_id, self._nearest(seq)) for seq in seqs]
        return [ScoredSequence(source_id, value, None, self.sigma.verdict(value)) for source_id, value in scored]


def run_enrichment(
    dataset: Dataset,
    config: EnrichmentConfig,
    method: str = "SC4ID",
    on_iteration: Callable[[EnrichmentRecord, list[ScoredSequence], list[ScoredSequence]], None] | None = None,
) -> EnrichmentTrace:
    """Run the enrichment loop and return its full trace, which holds at
    least one record: the initial evaluation always runs.

    ``on_iteration`` (if given) receives each record together with the
    iteration's scored pool and scored attacks, in order; the CLI uses it to
    emit per-iteration ROC and histogram files without the trace having to
    retain every score.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    train, rest = _initial_split(dataset, config)
    pool = {seq.source_id: seq for seq in rest}  # insertion order is scoring order
    total_normals = len(train) + len(pool)
    sigma = DetectorConfig()

    records: list[EnrichmentRecord] = []
    truncated = aborted = False
    budget = config.time_budget_seconds
    deadline = time.perf_counter() + (math.inf if budget is None else budget)

    def in_time(_) -> bool:
        # the initial evaluation always runs; the deadline gates each
        # sequence a later iteration scores
        return not records or time.perf_counter() <= deadline

    step_started = time.perf_counter()  # the first step's time includes the build
    if method == "SC4ID":
        scorer = _CoveringScorer(sigma, train)
    else:
        scorer = _BaselineScorer(_BASELINE_BY_METHOD[method], sigma, train)
    while True:
        iteration, train_size = len(records), total_normals - len(pool)
        train_fraction = Fraction(train_size, total_normals)
        scored_pool = scorer.score(takewhile(in_time, pool.values()))
        scored_attacks = scorer.score(takewhile(in_time, dataset.attacks))
        if len(scored_pool) < len(pool) or len(scored_attacks) < len(dataset.attacks):
            aborted = True  # the budget expired mid-iteration, which is dropped
            break

        normal_anomaly = [anomaly_score(item.similarity) for item in scored_pool]
        attack_anomaly = [anomaly_score(item.similarity) for item in scored_attacks]
        auc_all = auc_from_scores(normal_anomaly, attack_anomaly)
        separable = [score for score in attack_anomaly if score != 0]  # similarity 1: an exact substring
        auc_excl = auc_from_scores(normal_anomaly, separable) if separable else None
        elapsed = time.perf_counter() - step_started

        if config.stop_max_iterations is not None:
            stop = iteration + 1 >= config.stop_max_iterations
        else:
            stop = train_fraction >= config.stop_train_fraction
        added = () if stop else tuple(item.source_id for item in select_worst_k(scored_pool, config.batch_size))
        moved = [pool.pop(source_id) for source_id in added]

        record = EnrichmentRecord(
            iteration=iteration, train_size=train_size, train_fraction=train_fraction,
            auc=auc_all, auc_excluding_exact_matches=auc_excl, elapsed_seconds=elapsed, added_source_ids=added)
        records.append(record)
        if on_iteration is not None:
            on_iteration(record, scored_pool, scored_attacks)
        if stop:
            break
        if not pool:
            truncated = True  # nothing left to score or to select from
            break
        # the next step's time includes appending the batch this one moved
        step_started = time.perf_counter()
        scorer.extend(moved)

    return EnrichmentTrace(method, tuple(records), truncated, aborted)
