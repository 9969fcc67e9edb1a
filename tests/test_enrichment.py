import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_enrichment

from seqcover import (
    METHODS,
    BaselineKind,
    ConfigurationError,
    Covering,
    Dataset,
    DetectorConfig,
    EnrichmentConfig,
    EnrichmentRecord,
    EnrichmentTrace,
    NormalModel,
    ScoredSequence,
    Sequence,
    run_enrichment,
    score_batch,
    select_worst_k,
)
from seqcover.enrichment import _BaselineScorer, _initial_split


def _scored(source_id, value):
    return ScoredSequence(source_id, Fraction(value), Covering(((0, 1),), 1), "normal")


class TestSelectWorstK:
    def test_argmin(self):
        scored = [_scored("a", Fraction(9, 10)), _scored("b", Fraction(4, 10)),
                  _scored("c", Fraction(7, 10))]
        assert [s.source_id for s in select_worst_k(scored, 1)] == ["b"]

    def test_saturation(self):
        scored = [_scored("a", 1), _scored("b", 0)]
        assert len(select_worst_k(scored, 10)) == 2

    def test_tie_breaks_by_source_id(self):
        scored = [_scored("zz", Fraction(1, 2)), _scored("aa", Fraction(1, 2))]
        assert [s.source_id for s in select_worst_k(scored, 1)] == ["aa"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            select_worst_k([], 1)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            select_worst_k([_scored("a", 1)], 0)

    def test_tie_at_the_cut_is_ascending(self):
        scored = [_scored("d", Fraction(1, 2)), _scored("b", Fraction(1, 3)),
                  _scored("c", Fraction(1, 2)), _scored("a", Fraction(9, 10))]
        assert [s.source_id for s in select_worst_k(scored, 2)] == ["b", "c"]


def disjoint_dataset():
    """Validation normals are substrings of training, attacks share no symbols:
    normals score exactly 1, attacks 1/|s|, so separation is immediate."""
    rng = random.Random(99)
    base = tuple(rng.randrange(3) for _ in range(60))
    train = (Sequence(base, "train0"),)
    validation = tuple(Sequence(base[i:i + 12], f"val{i:02d}") for i in range(0, 40, 5))
    attacks = tuple(
        Sequence(tuple(rng.randrange(10, 13) for _ in range(15)), f"atk{i}") for i in range(4)
    )
    return Dataset(train, validation, attacks)


def test_disjoint_alphabet_separates_at_first_iteration():
    trace = run_enrichment(
        disjoint_dataset(),
        EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=1),
    )
    assert len(trace.records) == 1
    first = trace.records[0]
    assert first.iteration == 0
    assert first.train_size == 1
    assert first.auc == 1
    assert first.added_source_ids == ()
    assert not trace.truncated


def test_batch_equal_to_pool_exhausts_after_one_step():
    ds = disjoint_dataset()
    config = EnrichmentConfig(batch_size=len(ds.normal_validation), stop_train_fraction=1.0)
    trace = run_enrichment(ds, config)
    assert len(trace.records) == 1
    assert len(trace.records[0].added_source_ids) == len(ds.normal_validation)
    assert trace.truncated


def test_train_sizes_grow_by_batch_and_conserve_total():
    ds = disjoint_dataset()
    config = EnrichmentConfig(batch_size=2, stop_train_fraction=0.75)
    trace = run_enrichment(ds, config)
    total = len(ds.normal_train) + len(ds.normal_validation)
    sizes = [rec.train_size for rec in trace.records]
    assert sizes[0] == 1
    for rec in trace.records:
        assert rec.train_fraction == Fraction(rec.train_size, total)
    for before, after, rec in zip(sizes, sizes[1:], trace.records):
        assert after == before + len(rec.added_source_ids)
        assert len(rec.added_source_ids) <= 2
    assert Fraction(sizes[-1], total) >= Fraction(3, 4) or trace.truncated


def test_attack_similarity_monotone_across_iterations():
    # S only grows, so no pool or attack score may fall between iterations:
    # a longer S can only shorten a minimal covering, and a baseline's
    # nearest neighbour is a max over a larger set
    for ds, stop in ((disjoint_dataset(), 0.9), (random_dataset(), 1.0)):
        for method in ("SC4ID", "LEV", "LCSq", "LCSt"):
            seen: dict[str, list] = {}

            def watch(record, scored_pool, scored_attacks):
                for item in scored_pool + scored_attacks:
                    seen.setdefault(item.source_id, []).append(item.similarity)

            run_enrichment(ds, EnrichmentConfig(batch_size=1, stop_train_fraction=stop),
                           method=method, on_iteration=watch)
            assert max(len(values) for values in seen.values()) > 2
            for values in seen.values():
                assert all(a <= b for a, b in zip(values, values[1:])), (method, values)


def test_random_fraction_initialization_sizes_and_determinism():
    ds = disjoint_dataset()
    config = EnrichmentConfig(init_fraction=0.25, batch_size=1, stop_train_fraction=0.6, rng_seed=42)
    first = run_enrichment(ds, config)
    again = run_enrichment(ds, config)
    total = len(ds.normal_train) + len(ds.normal_validation)
    assert first.records[0].train_size == math.floor(Fraction(1, 4) * total + Fraction(1, 2))

    def fingerprint(trace):
        return [(r.iteration, r.train_size, r.auc, r.auc_excluding_exact_matches,
                 r.added_source_ids) for r in trace.records]

    assert fingerprint(first) == fingerprint(again)
    other = run_enrichment(
        ds, EnrichmentConfig(init_fraction=0.25, batch_size=1, stop_train_fraction=0.6, rng_seed=43),
    )
    assert fingerprint(other)  # runs fine; may or may not differ from seed 42


def test_max_iterations_stop():
    trace = run_enrichment(
        disjoint_dataset(),
        EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=3, batch_size=1),
    )
    assert len(trace.records) == 3
    assert trace.records[-1].added_source_ids == ()


def test_exact_match_attacks_excluded_from_second_auc():
    rng = random.Random(5)
    base = tuple(rng.randrange(3) for _ in range(60))
    ds = Dataset(
        (Sequence(base, "train0"),),
        (Sequence(base[5:20], "val0"), Sequence(base[7:31], "val1")),
        (Sequence(base[10:22], "atk_sub"),  # verbatim substring: similarity 1
         Sequence(tuple(rng.randrange(10, 13) for _ in range(12)), "atk_far")),
    )
    trace = run_enrichment(ds, EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=1))
    rec = trace.records[0]
    # the substring attack ties with the normals, dragging the all-attacks AUC down
    assert rec.auc < 1
    assert rec.auc_excluding_exact_matches == 1


def test_all_attacks_exact_matches_yields_none():
    rng = random.Random(6)
    base = tuple(rng.randrange(3) for _ in range(40))
    ds = Dataset(
        (Sequence(base, "train0"),),
        (Sequence(base[3:17], "val0"),),
        (Sequence(base[5:15], "atk0"),),
    )
    trace = run_enrichment(ds, EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=1))
    assert trace.records[0].auc_excluding_exact_matches is None


def test_baseline_methods_run():
    ds = disjoint_dataset()
    for method in ("LEV", "LCSq", "LCSt"):
        trace = run_enrichment(
            ds, EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=2),
            method=method,
        )
        assert trace.method == method
        assert trace.records[0].auc == 1  # disjoint alphabets separate trivially


def test_time_budget_aborts():
    ds = disjoint_dataset()
    trace = run_enrichment(
        ds, EnrichmentConfig(batch_size=1, stop_train_fraction=1.0, time_budget_seconds=0.0),
    )
    assert trace.aborted
    assert len(trace.records) == 1  # the first iteration runs, the second is refused


@pytest.mark.parametrize("method, refused", [
    pytest.param(method, refused, id=method if refused == "6th pool sequence" else f"{method}-{refused}")
    for refused in ("6th pool sequence", "first attack", "last attack")
    for method in ("SC4ID", "LEV", "LCSq", "LCSt")
])
def test_time_budget_cuts_an_iteration_short(monkeypatch, method, refused):
    import seqcover.detector as detector
    import seqcover.enrichment as enrichment

    ds = disjoint_dataset()
    module, name = (detector, "classify") if method == "SC4ID" else (enrichment, "nearest_similarity_to_set")
    scorer = getattr(module, name)
    first_iteration = len(ds.normal_validation) + len(ds.attacks)
    # iteration 1 scores the 7 pool sequences left after one move, then the
    # 4 attacks; the clock jumps while the last one in time is scored
    pool_left = len(ds.normal_validation) - 1
    in_time = {"6th pool sequence": 5, "first attack": pool_left,
               "last attack": pool_left + len(ds.attacks) - 1}[refused]
    clock = [0.0]
    scored = [0]

    def counting_scorer(*args, **kwargs):
        scored[0] += 1
        if scored[0] == first_iteration + in_time:
            clock[0] = 100.0
        return scorer(*args, **kwargs)

    monkeypatch.setattr(module, name, counting_scorer)
    monkeypatch.setattr(enrichment.time, "perf_counter", lambda: clock[0])
    trace = run_enrichment(
        ds, EnrichmentConfig(batch_size=1, stop_train_fraction=1.0, time_budget_seconds=10.0),
        method=method,
    )
    assert trace.aborted
    assert len(trace.records) == 1  # iteration 1 expired partway and is not recorded
    assert scored[0] == first_iteration + in_time


def test_duplicate_source_ids_rejected():
    base = (1, 2, 3, 4, 5, 6)
    ds = Dataset(
        (Sequence(base, "dup"),),
        (Sequence(base[1:4], "dup"),),
        (Sequence((9, 9), "atk"),),
    )
    with pytest.raises(ConfigurationError, match="unique source_ids"):
        run_enrichment(ds, EnrichmentConfig())


def test_fixed_init_needs_a_pool_to_score():
    ds = Dataset(
        (Sequence((1, 2, 3), "t0"), Sequence((2, 3, 4), "t1")),
        (),
        (Sequence((9,), "atk"),),
    )
    with pytest.raises(ConfigurationError, match="no normal sequences to score"):
        run_enrichment(ds, EnrichmentConfig())


def test_random_init_needs_two_normals():
    ds = Dataset(
        (Sequence((1, 2, 3), "only"),),
        (),
        (Sequence((9,), "atk"),),
    )
    with pytest.raises(ConfigurationError, match="at least two"):
        run_enrichment(ds, EnrichmentConfig(init_fraction=0.1))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EnrichmentConfig(init_fraction=1.5)
    with pytest.raises(ConfigurationError):
        EnrichmentConfig(batch_size=0)
    with pytest.raises(ConfigurationError, match="at most one stop rule may be set"):
        EnrichmentConfig(stop_train_fraction=0.5, stop_max_iterations=3)
    assert EnrichmentConfig(stop_train_fraction=None).stop_train_fraction == Fraction(1, 2)


@pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
def test_negative_or_nan_time_budget_rejected(budget):
    # nan compares False with every elapsed time and inf exceeds every one,
    # so such a budget would never expire
    with pytest.raises(ConfigurationError, match="time_budget_seconds"):
        EnrichmentConfig(time_budget_seconds=budget)


def test_init_fraction_alone_draws_at_random():
    # init_fraction is the whole initial-model setting: None is the fixed split
    ds = disjoint_dataset()
    total = len(ds.normal_train) + len(ds.normal_validation)
    drawn = run_enrichment(ds, EnrichmentConfig(init_fraction=0.25, stop_train_fraction=None,
                                                stop_max_iterations=1))
    assert drawn.records[0].train_size == round(0.25 * total)
    fixed = run_enrichment(ds, EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=1))
    assert fixed.records[0].train_size == len(ds.normal_train)


@pytest.mark.parametrize("value", [0, 0.0, 1.5])
def test_stop_train_fraction_outside_its_bounds_is_refused(value):
    with pytest.raises(ConfigurationError, match=r"stop_train_fraction must lie in \(0, 1\]"):
        EnrichmentConfig(stop_train_fraction=value)


def test_stop_rule_defaults_to_half_unless_an_iteration_count_is_set():
    assert EnrichmentConfig().stop_train_fraction == Fraction(1, 2)
    config = EnrichmentConfig(stop_max_iterations=3)
    assert (config.stop_train_fraction, config.stop_max_iterations) == (None, 3)


@pytest.mark.parametrize("init_fraction, drawn", [
    (0.05, 1), (0.15, 2), (0.25, 3), (0.35, 4), (0.45, 5), (0.95, 9),
])
def test_init_fraction_draws_half_up_from_a_ten_trace_pool(init_fraction, drawn):
    # floor(f·n + 1/2) on the exact rational f, at least one, at most n - 1
    normals = tuple(Sequence((i,), f"n{i}") for i in range(10))
    ds = Dataset(normals[:1], normals[1:], (Sequence((99,), "atk"),))
    config = EnrichmentConfig(init_fraction=init_fraction)
    assert config.init_fraction == Fraction(str(init_fraction))
    train, rest = _initial_split(ds, config)
    assert (len(train), len(rest)) == (drawn, 10 - drawn)


def test_stop_train_fraction_is_read_as_an_exact_rational():
    assert EnrichmentConfig(stop_train_fraction=0.1).stop_train_fraction == Fraction(1, 10)
    with pytest.raises(ConfigurationError, match="stop_train_fraction must be a finite number"):
        EnrichmentConfig(stop_train_fraction="abc")


def random_dataset():
    """Unrelated random normals over a small alphabet, so coverings change
    as the training set grows."""
    rng = random.Random(17)

    def draw(prefix, count):
        return tuple(Sequence(tuple(rng.randrange(4) for _ in range(rng.randint(4, 30))), f"{prefix}{i:02d}")
                     for i in range(count))

    return Dataset(draw("t", 3), draw("v", 12), draw("a", 4))


def test_sc4id_run_builds_one_index(monkeypatch):
    import seqcover.model as model

    built = []
    index_class = model.GeneralizedSuffixIndex

    def counting_index(sequences=()):
        built.append(sequences)
        return index_class(sequences)

    monkeypatch.setattr(model, "GeneralizedSuffixIndex", counting_index)
    trace = run_enrichment(random_dataset(),
                           EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=4))
    assert len(trace.records) == 4
    assert len(built) == 1


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("init_fraction, method", [
    pytest.param(None, "SC4ID", id="None"), pytest.param(0.25, "SC4ID", id="0.25"),
    pytest.param(None, "LEV", id="None-LEV"), pytest.param(0.25, "LEV", id="0.25-LEV"),
    pytest.param(None, "LCSq", id="None-LCSq"), pytest.param(0.25, "LCSq", id="0.25-LCSq"),
    pytest.param(None, "LCSt", id="None-LCSt"), pytest.param(0.25, "LCSt", id="0.25-LCSt"),
])
def test_grown_model_scores_as_a_rebuilt_one(monkeypatch, batch_size, init_fraction, method):
    import seqcover.enrichment as enrichment

    ds = random_dataset()
    config = EnrichmentConfig(init_fraction=init_fraction, batch_size=batch_size,
                              stop_train_fraction=Fraction(9, 10), rng_seed=3)
    train, _ = _initial_split(ds, config)
    by_id = {seq.source_id: seq for seq in ds.normal_train + ds.normal_validation}
    sigma = DetectorConfig()
    references = {}  # query symbols -> every reference scored against them, in order
    nearest = enrichment.nearest_similarity_to_set

    def recording_nearest(kind, model_sequences, s):
        references.setdefault(s.symbols, []).extend(model_sequences)
        return nearest(kind, model_sequences, s)

    monkeypatch.setattr(enrichment, "nearest_similarity_to_set", recording_nearest)
    checked = []

    def rescored(seqs):
        if method == "SC4ID":
            return score_batch(NormalModel(train), sigma, seqs)
        values = [nearest(BaselineKind(method), train, seq) for seq in seqs]
        return [ScoredSequence(seq.source_id, value, None, sigma.verdict(value))
                for seq, value in zip(seqs, values)]

    def rebuild_and_compare(record, scored_pool, scored_attacks):
        assert record.train_size == len(train)
        pool = [by_id[item.source_id] for item in scored_pool]
        if method != "SC4ID":
            # across iterations, a baseline scores each query content against
            # exactly the training list: no reference skipped or scored twice
            for seq in pool + list(ds.attacks):
                assert references[seq.symbols] == train
        assert scored_pool == rescored(pool)
        assert scored_attacks == rescored(ds.attacks)
        train.extend(by_id[source_id] for source_id in record.added_source_ids)
        checked.append(record.iteration)

    run_enrichment(ds, config, method=method, on_iteration=rebuild_and_compare)
    assert len(checked) >= 3


# a run of a baseline scorer: the contents its sequences are drawn from, the
# initial training list, then ("extend" | "score", content indices) steps;
# contents repeat, so one content is scored under several source_ids
_contents = st.lists(st.lists(st.integers(0, 3), max_size=8).map(tuple), min_size=1, max_size=4)
_indices = st.lists(st.integers(0, 3), max_size=4)
_steps = st.lists(st.tuples(st.sampled_from(["extend", "score"]), _indices), max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(BaselineKind)), _contents, _indices.filter(bool), _steps)
@example(BaselineKind.LEV, [(), (1, 2), (2, 1, 1)], [1],
         # the same content twice, an empty batch, a sequence first scored
         # after several extends, the empty sequence as query and reference
         [("score", [1, 1]), ("extend", []), ("extend", [0]), ("extend", [2]), ("score", [2, 0, 1])])
def test_baseline_scorer_equals_nearest_over_all_references(kind, contents, initial, steps):
    import seqcover.enrichment as enrichment

    def sequences(tag, indices):
        return [Sequence(contents[i % len(contents)], f"{tag}-{n}") for n, i in enumerate(indices)]

    nearest = enrichment.nearest_similarity_to_set
    scored_against = {}  # query symbols -> every reference scored against them, in order

    def recording_nearest(kind, model_sequences, s):
        scored_against.setdefault(s.symbols, []).extend(model_sequences)
        return nearest(kind, model_sequences, s)

    references = sequences("train", initial)
    scorer = _BaselineScorer(kind, DetectorConfig(), references)
    with mock.patch.object(enrichment, "nearest_similarity_to_set", recording_nearest):
        for step, (action, indices) in enumerate(steps):
            batch = sequences(f"{action}{step}", indices)
            if action == "extend":
                scorer.extend(batch)
                references = references + batch
                continue
            scored = scorer.score(batch)
            assert [item.source_id for item in scored] == [seq.source_id for seq in batch]
            for seq, item in zip(batch, scored):
                assert item.similarity == nearest(kind, references, seq)
                # each reference scored once per content: none skipped, none rescanned
                assert scored_against[seq.symbols] == references


def _without_elapsed(trace):
    return dataclasses.replace(trace, records=tuple(
        dataclasses.replace(record, elapsed_seconds=0.0) for record in trace.records))


# splits over a three-symbol alphabet, so that scores tie and the source_id
# tie-break decides which normals move
_split = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(METHODS), st.integers(1, 3), _split, _split, _split, st.data())
def test_enrichment_ignores_the_order_of_each_split(method, batch_size, train, validation, attacks, data):
    splits = [tuple(Sequence(symbols, f"{tag}{i}") for i, symbols in enumerate(split))
              for tag, split in zip("tva", (train, validation, attacks))]
    permuted = [data.draw(st.permutations(split)) for split in splits]
    config = EnrichmentConfig(batch_size=batch_size, stop_train_fraction=1)  # until the pool is empty
    expected = _without_elapsed(run_enrichment(Dataset(*splits), config, method=method))
    assert _without_elapsed(run_enrichment(Dataset(*permuted), config, method=method)) == expected


@st.composite
def _protocol_runs(draw):
    """A small dataset, a config and a method for one enrichment run.

    Three symbols and lengths from 0 to 30, so scores tie and the source_id
    tie-break decides the cut; normals may repeat a content, and attacks may
    repeat one another or be verbatim slices of a normal. Source_ids are
    dealt in shuffled order, so their order is not load order.
    """
    symbol = st.integers(0, 2)
    content = (st.lists(symbol, max_size=4)
               | st.integers(0, 30).flatmap(lambda n: st.lists(symbol, min_size=n, max_size=n))).map(tuple)

    def contents(count, slices):
        drawn = []
        for _ in range(count):
            kind = draw(st.sampled_from(["fresh"] + ["repeat"] * bool(drawn) + ["slice"] * bool(slices)))
            if kind == "fresh":
                drawn.append(draw(content))
            elif kind == "repeat":
                drawn.append(draw(st.sampled_from(drawn)))
            else:
                whole = draw(st.sampled_from(slices))
                start = draw(st.integers(0, len(whole)))
                drawn.append(whole[start:draw(st.integers(start, len(whole)))])
        return drawn

    normals = contents(draw(st.integers(2, 8)), ())
    attacks = contents(draw(st.integers(1, 5)), normals)
    ids = draw(st.permutations([f"n{i}" for i in range(len(normals))]))
    init_fraction = draw(st.none() | st.integers(1, 19).map(lambda k: Fraction(k, 20)))
    # a fixed init takes the first `cut` normals as training and needs a pool;
    # a random one pools both splits, so its validation split may be empty
    cut = draw(st.integers(1, len(normals) - (init_fraction is None)))
    labelled = [Sequence(symbols, source_id) for symbols, source_id in zip(normals, ids)]
    dataset = Dataset(labelled[:cut], labelled[cut:],
                      [Sequence(symbols, f"a{j}") for j, symbols in enumerate(attacks)])
    stop_iterations = draw(st.none() | st.integers(1, len(normals) + 1))
    stop_fraction = None if stop_iterations else draw(st.none() | st.integers(1, 8).map(lambda k: Fraction(k, 8)))
    batch_size = draw(st.integers(1, 2) | st.integers(1, len(normals) - 1))
    config = EnrichmentConfig(init_fraction=init_fraction, batch_size=batch_size,
                              stop_train_fraction=stop_fraction, stop_max_iterations=stop_iterations,
                              rng_seed=draw(st.integers(0, 2**16)))
    return dataset, config, draw(st.sampled_from(METHODS))


@settings(max_examples=150, deadline=None)
@given(_protocol_runs())
def test_enrichment_equals_the_naive_protocol(run):
    dataset, config, method = run
    scores = []

    def keep(record, scored_pool, scored_attacks):
        scores.append(tuple([(item.source_id, item.similarity) for item in scored]
                            for scored in (scored_pool, scored_attacks)))

    trace = run_enrichment(dataset, config, method=method, on_iteration=keep)
    records, truncated, expected_scores = naive_enrichment(dataset, config, method)
    expected = EnrichmentTrace(
        method, tuple(EnrichmentRecord(**record, elapsed_seconds=0.0) for record in records), truncated)
    assert _without_elapsed(trace) == expected
    assert scores == expected_scores
