import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RAW_SYMBOLS, S1, S2, S3, S4
from oracles import dp_optimal_cover_oracle, in_s_sub
from seqcover import (
    GeneralizedSuffixIndex,
    NormalModel,
    Sequence,
    covering_similarity,
    pairwise_similarity,
    ratio_str,
)
from seqcover.covering import greedy_cover, greedy_cover_binary, greedy_cover_linear


class TestWorkedExample:
    def test_s3_four_blocks(self, reference_model):
        cover = greedy_cover_linear(reference_model, S3)
        assert cover.segments == ((0, 4), (4, 8), (8, 12), (12, 16))
        assert covering_similarity(reference_model, S3) == Fraction(13, 16)

    def test_s4_eight_blocks(self, reference_model):
        cover = greedy_cover_linear(reference_model, S4)
        assert cover.size == 8
        assert all(end - start == 2 for start, end in cover.segments)
        assert covering_similarity(reference_model, S4) == Fraction(9, 16)

    def test_binary_variant_identical(self, reference_model):
        for s in (S1, S2, S3, S4):
            assert greedy_cover_binary(reference_model, s).segments == \
                greedy_cover_linear(reference_model, s).segments

    def test_dp_oracle_agrees(self, reference_model):
        assert dp_optimal_cover_oracle(reference_model, S3) == 4
        assert dp_optimal_cover_oracle(reference_model, S4) == 8


def test_substring_of_model_is_one_segment(reference_model):
    s = Sequence(S1.symbols[3:9], "frag")
    cover = greedy_cover_linear(reference_model, s)
    assert cover.size == 1
    assert covering_similarity(reference_model, s) == 1


def test_empty_sequence_similarity_is_one(reference_model):
    assert covering_similarity(reference_model, Sequence((), "eps")) == 1


def test_cover_of_empty_sequence_is_empty(reference_model):
    for extractor in (greedy_cover_linear, greedy_cover_binary):
        cover = extractor(reference_model, Sequence((), "eps"))
        assert cover.segments == ()
        assert cover.similarity == 1


def test_raw_tuple_with_negative_symbol_scores_exactly():
    model = NormalModel([(1, 2, 3), (4, 5)])
    # segments (2, 3), (-1), (4, 5): k = 3
    assert covering_similarity(model, (2, 3, -1, 4, 5)) == Fraction(3, 5)


def test_empty_model_gives_floor():
    model = NormalModel(())
    assert covering_similarity(model, Sequence((3, 4, 5))) == Fraction(1, 3)


def test_all_empty_model_behaves_like_empty():
    model = NormalModel((Sequence((), "e1"), Sequence((), "e2")))
    assert covering_similarity(model, Sequence((3, 4, 5))) == Fraction(1, 3)


class TestFindBreakBinary:
    """The binary break search of ``greedy_cover_binary``, read off its first segment."""

    def test_break_after_matched_prefix(self):
        model = NormalModel((Sequence((1, 2, 3), "m"),))
        assert greedy_cover_binary(model, Sequence((1, 2, 9))).segments[0] == (0, 2)

    def test_full_match_returns_end_bound(self):
        model = NormalModel((Sequence((1, 2, 3), "m"),))
        assert greedy_cover_binary(model, Sequence((1, 2, 3))).segments[0] == (0, 3)

    def test_unseen_symbol_floor(self):
        model = NormalModel((Sequence((7,), "m"),))
        assert greedy_cover_binary(model, Sequence((8, 8))).segments[0] == (0, 1)


def _random_instance(rng):
    alphabet = rng.randint(1, 8)
    seqs = [
        Sequence(tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, 40))), f"m{i}")
        for i in range(rng.randint(1, 6))
    ]
    test_alphabet = alphabet + (1 if rng.random() < 0.3 else 0)
    s = Sequence(tuple(rng.randrange(test_alphabet) for _ in range(rng.randint(1, 40))), "t")
    return NormalModel(seqs), s


def test_greedy_is_optimal_randomized():
    rng = random.Random(20240311)
    for _ in range(250):
        model, s = _random_instance(rng)
        assert greedy_cover_linear(model, s).size == dp_optimal_cover_oracle(model, s)


def test_variants_identical_randomized():
    rng = random.Random(20240312)
    for _ in range(250):
        model, s = _random_instance(rng)
        assert greedy_cover_linear(model, s).segments == greedy_cover_binary(model, s).segments


def test_greedy_cover_walks_the_index_once_per_segment(monkeypatch):
    # the benchmark counts covering probes on longest_match_from, and its
    # traced runs require one per segment
    walks = []
    longest_match_from = GeneralizedSuffixIndex.longest_match_from

    def counted(index, s, start):
        walks.append(start)
        return longest_match_from(index, s, start)

    monkeypatch.setattr(GeneralizedSuffixIndex, "longest_match_from", counted)
    rng = random.Random(20240314)
    for _ in range(100):
        model, s = _random_instance(rng)
        walks.clear()
        cover = greedy_cover(model, s)
        assert walks == [start for start, _ in cover.segments]


def test_segments_partition_and_are_maximal():
    rng = random.Random(20240313)
    for _ in range(100):
        model, s = _random_instance(rng)
        cover = greedy_cover_linear(model, s)
        assert cover.segments[0][0] == 0
        assert cover.segments[-1][1] == len(s)
        for (a0, a1), (b0, b1) in zip(cover.segments, cover.segments[1:]):
            assert a1 == b0
        for start, end in cover.segments:
            assert end - start >= 1
            if end - start >= 2:
                assert in_s_sub(model, s.symbols[start:end])
            if end < len(s):
                # extending any segment by one symbol leaves the pool
                assert not in_s_sub(model, s.symbols[start:end + 1])


def test_similarity_bounds_randomized():
    rng = random.Random(20240314)
    for _ in range(150):
        model, s = _random_instance(rng)
        value = covering_similarity(model, s)
        assert Fraction(1, len(s)) <= value <= 1
        assert (value == 1) == (greedy_cover_linear(model, s).size == 1)


def test_similarity_monotone_in_model():
    rng = random.Random(20240315)
    for _ in range(80):
        model, s = _random_instance(rng)
        extra = [
            Sequence(tuple(rng.randrange(9) for _ in range(rng.randint(0, 30))), f"x{i}")
            for i in range(rng.randint(1, 3))
        ]
        before = covering_similarity(model, s)
        model.extend(extra)
        assert covering_similarity(model, s) >= before


# S over symbols 0-3 and queries over 0-4, so that queries match long runs
# of S and sometimes hold a symbol S lacks
_model_set = st.lists(st.lists(st.integers(0, 3), max_size=10), min_size=1, max_size=5)
_query = st.lists(st.integers(0, 4), min_size=1, max_size=16)


@settings(max_examples=150, deadline=None)
@given(_model_set, _query, st.data())
def test_covering_ignores_the_order_and_duplicates_of_s(sequences, query, data):
    duplicates = data.draw(st.lists(st.sampled_from(sequences), max_size=4))
    shuffled = data.draw(st.permutations(sequences + duplicates))
    expected = greedy_cover_linear(NormalModel(sequences), query)
    assert greedy_cover_linear(NormalModel(shuffled), query) == expected


@settings(max_examples=150, deadline=None)
@given(_model_set, _query, st.permutations(RAW_SYMBOLS))
@example([[0, 1], [2]], [1, 4, 2], (-7, 0, 255, 256, -1, 10**6, 2**63, 2**70))  # 4 -> -1 joins [0, 1] to [2]
def test_covering_ignores_an_injective_relabelling(sequences, query, targets):
    def relabel(symbols):
        return tuple(targets[symbol] for symbol in symbols)

    expected = greedy_cover_linear(NormalModel(sequences), query)
    assert greedy_cover_linear(NormalModel(map(relabel, sequences)), relabel(query)) == expected


short_seq = st.lists(st.integers(0, 4), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(short_seq, short_seq)
def test_pairwise_symmetric(a, b):
    assert pairwise_similarity(a, b) == pairwise_similarity(b, a)


@settings(max_examples=60, deadline=None)
@given(short_seq)
def test_pairwise_self_similarity_is_one(a):
    assert pairwise_similarity(a, a) == 1


def test_pairwise_examples():
    assert pairwise_similarity([1, 2, 3], [1, 2, 3]) == 1
    assert pairwise_similarity([1, 2], [3, 4]) == Fraction(1, 2)
    assert pairwise_similarity([1], [2]) == 1  # one symbol each: a single segment


def test_pairwise_in_unit_interval():
    rng = random.Random(20240316)
    for _ in range(60):
        a = [rng.randrange(4) for _ in range(rng.randint(1, 15))]
        b = [rng.randrange(4) for _ in range(rng.randint(1, 15))]
        value = pairwise_similarity(a, b)
        assert 0 < value <= 1


def test_oracle_refuses_oversized_input():
    model = NormalModel((Sequence((1,), "m"),))
    with pytest.raises(ValueError, match="capped"):
        dp_optimal_cover_oracle(model, Sequence(tuple([1] * 300)), max_len=256)


def test_ratio_str():
    assert ratio_str(Fraction(13, 16)) == "13/16"
    assert ratio_str(Fraction(1)) == "1/1"
