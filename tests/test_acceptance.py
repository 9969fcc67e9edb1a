"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 7 and 8 need the public corpora on disk (ADFA_LD_DIR /
UNM_DIR environment variables) and skip otherwise; everything else is fully
self-contained.
"""

import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import dp_optimal_cover_oracle, lcsq_enum, lcsq_memo, lcst_dp, lev_memo, naive_contains
from seqcover import (
    BaselineKind,
    Dataset,
    DetectorConfig,
    EnrichmentConfig,
    GeneralizedSuffixIndex,
    NormalModel,
    Sequence,
    anomaly_score,
    auc_from_scores,
    covering_similarity,
    load_dataset,
    pairwise_baseline,
    pairwise_similarity,
    rank_auc,
    run_enrichment,
    score_batch,
)
from seqcover.baselines import _lcsq_to, _lcst_to, _levenshtein_to
from seqcover.covering import greedy_cover_binary, greedy_cover_linear

SEED = 20240809


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _skip(number, name, reason):
    print(f"ACCEPTANCE {number} ({name}): SKIP ({reason})")
    pytest.skip(reason)


@pytest.fixture(scope="module")
def random_instances():
    """1000 seeded instances: alphabet <= 8, |S| <= 10, lengths <= 64.

    The test alphabet occasionally exceeds the model's so that the
    single-symbol fallback path is exercised.
    """
    rng = random.Random(SEED)
    instances = []
    for _ in range(1000):
        alphabet = rng.randint(1, 8)
        count = rng.randint(1, 10)
        seqs = tuple(
            Sequence(tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, 64))), f"m{i}")
            for i in range(count)
        )
        test_alphabet = alphabet + (1 if rng.random() < 0.3 else 0)
        s = Sequence(tuple(rng.randrange(test_alphabet) for _ in range(rng.randint(1, 64))), "t")
        instances.append((seqs, s))
    return instances


def test_criterion_1_worked_example_exactness():
    s1 = Sequence((0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1), "s1")
    s2 = Sequence((0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1), "s2")
    s3 = Sequence((0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1), "s3")
    s4 = Sequence((0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1), "s4")
    model = NormalModel((s1, s2))
    assert greedy_cover_linear(model, s3).size == 4
    assert greedy_cover_linear(model, s4).size == 8
    assert covering_similarity(model, s3) == Fraction(13, 16)
    assert covering_similarity(model, s4) == Fraction(9, 16)
    _report(1, "worked-example exactness")


def test_criterion_2_greedy_optimality(random_instances):
    failures = 0
    for seqs, s in random_instances:
        model = NormalModel(seqs)
        if greedy_cover_linear(model, s).size != dp_optimal_cover_oracle(model, s):
            failures += 1
    assert failures == 0
    _report(2, f"greedy optimality on {len(random_instances)} instances")


def test_criterion_3_algorithm_equivalence(random_instances):
    discrepancies = 0
    for seqs, s in random_instances:
        model = NormalModel(seqs)
        if greedy_cover_linear(model, s).segments != greedy_cover_binary(model, s).segments:
            discrepancies += 1
    assert discrepancies == 0
    _report(3, f"linear/binary equivalence on {len(random_instances)} instances")


def test_criterion_4_property_suite(random_instances):
    rng = random.Random(SEED + 4)

    for seqs, s in random_instances[:200]:
        model = NormalModel(seqs)
        value = covering_similarity(model, s)
        assert Fraction(1, len(s)) <= value <= 1

        extra = tuple(
            Sequence(tuple(rng.randrange(9) for _ in range(rng.randint(0, 40))), f"x{i}")
            for i in range(rng.randint(1, 3))
        )
        assert covering_similarity(NormalModel(seqs + extra), s) >= value

    for _ in range(200):
        a = tuple(rng.randrange(5) for _ in range(rng.randint(1, 20)))
        b = tuple(rng.randrange(5) for _ in range(rng.randint(1, 20)))
        assert pairwise_similarity(a, b) == pairwise_similarity(b, a)
        assert pairwise_similarity(a, a) == 1

    for seqs, s in random_instances[200:400]:
        index = GeneralizedSuffixIndex(seqs)
        query = s.symbols[: rng.randint(1, len(s))]
        assert index.contains_range(query, 0, len(query)) == naive_contains(seqs, query)
        if index.contains_range(query, 0, len(query)):
            for cut in range(1, len(query) + 1):
                assert index.contains_range(query, 0, cut)
    _report(4, "similarity bounds, S-monotonicity, pairwise symmetry, prefix closure")


def test_criterion_5_baseline_correctness():
    rng = random.Random(SEED + 5)
    pairs = []
    while len(pairs) < 500:
        a = tuple(rng.randrange(6) for _ in range(rng.randint(0, 20)))
        b = tuple(rng.randrange(6) for _ in range(rng.randint(0, 20)))
        if a or b:
            pairs.append((a, b))
    for a, b in pairs:
        denominator = max(len(a), len(b))
        assert _levenshtein_to(a)(b) == lev_memo(a, b)
        assert _lcsq_to(a)(b) == lcsq_memo(a, b)
        assert _lcst_to(a)(b) == lcst_dp(a, b)
        assert pairwise_baseline(BaselineKind.LCST, a, b) <= pairwise_baseline(BaselineKind.LCSQ, a, b)
        assert pairwise_baseline(BaselineKind.LCST, a, b) == Fraction(lcst_dp(a, b), denominator)
    for _ in range(40):  # exhaustive enumeration cross-check at tiny sizes
        a = tuple(rng.randrange(4) for _ in range(rng.randint(1, 9)))
        b = tuple(rng.randrange(4) for _ in range(rng.randint(1, 9)))
        assert _lcsq_to(a)(b) == lcsq_enum(a, b)
    _report(5, "LEV/LCSq/LCSt equal independent oracles on 500 pairs")


def test_criterion_6_evaluation_correctness():
    rng = random.Random(SEED + 6)
    for _ in range(300):
        normals = [Fraction(rng.randint(0, 6), 6) for _ in range(rng.randint(1, 25))]
        attacks = [Fraction(rng.randint(0, 6), 6) for _ in range(rng.randint(1, 25))]
        trapezoid = auc_from_scores(normals, attacks)
        ranked = rank_auc(normals, attacks)
        assert trapezoid == ranked
        assert abs(float(trapezoid) - float(ranked)) <= 1e-12

    base = tuple(rng.randrange(3) for _ in range(60))
    dataset = Dataset(
        (Sequence(base, "train0"),),
        tuple(Sequence(base[i:i + 12], f"val{i:02d}") for i in range(0, 40, 5)),
        tuple(Sequence(tuple(rng.randrange(10, 13) for _ in range(15)), f"atk{i}")
              for i in range(4)),
    )
    trace = run_enrichment(
        dataset, EnrichmentConfig(stop_train_fraction=None, stop_max_iterations=1)
    )
    assert trace.records[0].auc == 1
    assert len(trace.records) == 1
    _report(6, "trapezoid AUC == rank AUC; disjoint alphabets give AUC 1 at first iteration")


def _adfa_root():
    root = os.environ.get("ADFA_LD_DIR")
    if not root:
        return None
    root = Path(root)
    needed = ["Training_Data_Master", "Validation_Data_Master", "Attack_Data_Master"]
    return root if all((root / d).is_dir() for d in needed) else None


def test_criterion_7_adfa_reproduction():
    root = _adfa_root()
    if root is None:
        _skip(7, "ADFA-LD reproduction", "corpus not on disk; set ADFA_LD_DIR")
    dataset = load_dataset(
        root / "Training_Data_Master",
        root / "Validation_Data_Master",
        root / "Attack_Data_Master",
    )
    assert len(dataset.normal_train) == 833

    model = NormalModel(dataset.normal_train)
    config = DetectorConfig()
    scored_val = score_batch(model, config, dataset.normal_validation)
    scored_atk = score_batch(model, config, dataset.attacks)
    exact_substring_attacks = sum(1 for item in scored_atk if item.similarity == 1)
    assert exact_substring_attacks == 32

    normal_anom = [anomaly_score(item.similarity) for item in scored_val]
    attack_anom = [anomaly_score(item.similarity) for item in scored_atk]
    initial_auc = float(auc_from_scores(normal_anom, attack_anom))
    assert 0.81 <= initial_auc <= 0.91

    trace = run_enrichment(
        dataset,
        EnrichmentConfig(batch_size=100, stop_train_fraction=None, stop_max_iterations=11),
    )
    last = trace.records[-1]
    assert last.train_size == 1833  # initial 833 plus 1000 worst-score normals
    assert float(last.auc_excluding_exact_matches) >= 0.97
    _report(7, "ADFA-LD reproduction")


def _unm_root():
    root = os.environ.get("UNM_DIR")
    if not root:
        return None
    root = Path(root)
    return root if (root / "normal").is_dir() and (root / "attack").is_dir() else None


def test_criterion_8_unm_reproduction():
    root = _unm_root()
    if root is None:
        _skip(8, "UNM reproduction", "corpus not on disk; set UNM_DIR")
    per = os.environ.get("UNM_TRACE_PER", "file")
    dataset = load_dataset(root / "normal", None, root / "attack", one_trace_per=per)
    for seed in range(5):
        trace = run_enrichment(
            dataset,
            EnrichmentConfig(init_fraction=0.10, batch_size=1, stop_train_fraction=0.5, rng_seed=seed),
        )
        assert any(rec.auc == 1 for rec in trace.records), f"seed {seed} never separated"
    _report(8, "UNM reproduction: AUC 1.0 within 50% training on 5 seeds")


def _best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _copied_chunks(rng, base, n):
    """Eight long chunks copied from the sequences of base, each ended by a
    symbol base never holds: the covering stays at ~16 segments at every n."""
    per = n // 8
    pieces = []
    for _ in range(8):
        src = base[rng.randrange(8)]
        offset = rng.randrange(0, len(src) - (per - 1))
        pieces.extend(src[offset:offset + per - 1])
        pieces.append(90)
    return Sequence(tuple(pieces), f"s{n}")


def test_criterion_9_scaling_sanity():
    rng = random.Random(SEED + 9)
    base = [tuple(rng.randrange(8) for _ in range(15000)) for _ in range(8)]
    normals = tuple(Sequence(b, f"b{i}") for i, b in enumerate(base))
    model = NormalModel(normals)

    sizes = [10_000, 20_000, 40_000, 80_000]
    tests = {n: _copied_chunks(rng, base, n) for n in sizes}
    for n, s in tests.items():
        cover = greedy_cover_binary(model, s)
        assert cover.size <= 24, f"covering blew up at n={n}: k={cover.size}"

    def fit_slope():
        timings = [_best_time(lambda: greedy_cover_binary(model, tests[n]), 5) for n in sizes]
        xs = [math.log(n) for n in sizes]
        ys = [math.log(t) for t in timings]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) \
            / sum((x - mean_x) ** 2 for x in xs)

    # n log n predicts an exponent near 1.1 over this range; remeasure once
    # if a noisy first pass lands beyond the bound
    slope = fit_slope()
    if slope > 1.3:
        slope = fit_slope()
    assert slope <= 1.3, f"growth exponent {slope:.3f} exceeds 1.3"

    # per-query time must not depend on |S|: double the indexed mass with
    # sequences over a disjoint alphabet (same coverings, bigger tree)
    doubled = NormalModel(
        normals
        + tuple(
            Sequence(tuple(rng.randrange(100, 108) for _ in range(15000)), f"e{i}")
            for i in range(8)
        )
    )
    probe = tests[40_000]

    def size_effect():
        small = _best_time(lambda: greedy_cover_binary(model, probe), 5)
        large = _best_time(lambda: greedy_cover_binary(doubled, probe), 5)
        return abs(large - small) / small

    change = size_effect()
    if change >= 0.25:
        change = size_effect()
    assert change < 0.25, f"per-query time moved {change:.1%} when |S| doubled"
    _report(9, f"scaling: exponent {slope:.2f} <= 1.3, |S|-doubling moved time {change:.1%}")


def test_criterion_9_probe_counts(monkeypatch):
    """Criterion 9 counted instead of timed: on its construction, the binary
    extractor makes at most k·(⌈log2 n⌉ + 1) membership probes for a
    covering of size k, and the same number when |S| doubles."""
    rng = random.Random(SEED + 9)
    base = [tuple(rng.randrange(8) for _ in range(3000)) for _ in range(8)]
    normals = tuple(Sequence(b, f"b{i}") for i, b in enumerate(base))
    disjoint = tuple(Sequence(tuple(rng.randrange(100, 108) for _ in range(3000)), f"e{i}") for i in range(8))
    model, doubled = NormalModel(normals), NormalModel(normals + disjoint)

    probes = []
    contains_range = GeneralizedSuffixIndex.contains_range

    def counted(index, *args):
        probes.append(args)
        return contains_range(index, *args)

    monkeypatch.setattr(GeneralizedSuffixIndex, "contains_range", counted)

    def cover_and_count(model, s):
        probes.clear()
        return greedy_cover_binary(model, s).segments, len(probes)

    for n in (2_000, 4_000, 8_000, 16_000):
        s = _copied_chunks(rng, base, n)
        segments, count = cover_and_count(model, s)
        assert cover_and_count(doubled, s) == (segments, count)
        assert count <= len(segments) * (math.ceil(math.log2(n)) + 1), f"n={n}, k={len(segments)}"
