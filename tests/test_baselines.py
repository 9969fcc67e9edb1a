import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcsq_enum, lcsq_memo, lcsq_two_row, lcst_dp, lev_memo, lev_two_row
from seqcover import (
    BaselineKind,
    ConfigurationError,
    Sequence,
    lcsq_length,
    lcsq_similarity,
    lcst_length,
    lcst_similarity,
    lev_similarity,
    levenshtein_distance,
    nearest_similarity_to_set,
)
from seqcover.baselines import pairwise_baseline

seq = st.lists(st.integers(0, 6), max_size=16)


def test_lev_identical_is_one():
    assert lev_similarity((1, 2, 3), (1, 2, 3)) == 1


def test_lev_against_empty_is_zero():
    assert lev_similarity((1, 2, 3), ()) == 0


def test_lev_worked_pair():
    # distance 3: substitute 1->2, substitute 4->2, insert 6
    a, b = (1, 2, 3, 3, 4, 5), (2, 2, 3, 3, 2, 5, 6)
    assert levenshtein_distance(a, b) == lev_memo(a, b) == 3
    assert lev_similarity(a, b) == 1 - Fraction(3, 7)


def test_both_empty_pairs_score_one():
    assert lev_similarity((), ()) == 1
    assert lcsq_similarity((), ()) == 1
    assert lcst_similarity((), ()) == 1


def test_lcsq_identical():
    assert lcsq_similarity((4, 4, 4), (4, 4, 4)) == 1


def test_lcsq_disjoint_alphabets():
    assert lcsq_similarity((1, 2), (8, 9)) == 0


def test_lcsq_gapped_example():
    assert lcsq_enum((1, 3, 2, 4), (1, 2, 3, 4)) == 3
    assert lcsq_similarity((1, 3, 2, 4), (1, 2, 3, 4)) == Fraction(3, 4)


def test_lcst_examples():
    assert lcst_similarity((1, 2, 3, 4), (1, 2, 3, 4)) == 1
    assert lcst_similarity((1, 2), (8, 9)) == 0
    assert lcst_similarity((1, 2, 3, 4), (9, 2, 3, 8)) == Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lev_matches_memo_oracle(a, b):
    assert levenshtein_distance(a, b) == lev_memo(a, b)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lcsq_matches_memo_oracle(a, b):
    from seqcover import lcsq_length
    assert lcsq_length(a, b) == lcsq_memo(a, b)


def symbols(k):
    # the length is drawn first: plain st.lists rarely exceeds 30 symbols
    return st.integers(0, 200).flatmap(
        lambda n: st.lists(st.integers(0, k - 1), min_size=n, max_size=n))


# lengths 0-200, so the bit vectors cross 64 and 128 bits; 2 symbols make
# many matches, 40 make few
long_pair = st.sampled_from([2, 40]).flatmap(lambda k: st.tuples(symbols(k), symbols(k)))


@settings(max_examples=80, deadline=None)
@given(long_pair)
def test_bit_vector_lev_matches_two_row_dp(pair):
    a, b = pair
    assert levenshtein_distance(a, b) == lev_two_row(a, b)


@settings(max_examples=80, deadline=None)
@given(long_pair)
def test_bit_vector_lcsq_matches_two_row_dp(pair):
    a, b = pair
    assert lcsq_length(a, b) == lcsq_two_row(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=9), st.lists(st.integers(0, 3), max_size=9))
def test_lcsq_matches_enumeration_on_tiny_inputs(a, b):
    from seqcover import lcsq_length
    assert lcsq_length(a, b) == lcsq_enum(a, b)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lcst_automaton_matches_quadratic_dp(a, b):
    assert lcst_length(a, b) == lcst_dp(a, b)


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_symmetry_and_range(a, b):
    for fn in (lev_similarity, lcsq_similarity, lcst_similarity):
        forward = fn(a, b)
        assert forward == fn(b, a)
        assert 0 <= forward <= 1


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_substring_never_beats_subsequence(a, b):
    assert lcst_similarity(a, b) <= lcsq_similarity(a, b)


@settings(max_examples=80, deadline=None)
@given(seq, seq, seq)
def test_lev_triangle_inequality(a, b, c):
    assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


def test_nearest_similarity_exact_member():
    refs = [Sequence((1, 2, 3), "r0"), Sequence((9, 9), "r1")]
    assert nearest_similarity_to_set(BaselineKind.LEV, refs, Sequence((9, 9), "t")) == 1


def test_nearest_similarity_singleton_equals_pairwise():
    ref = Sequence((1, 2, 3, 4), "r")
    probe = Sequence((1, 2, 9, 4), "t")
    assert nearest_similarity_to_set(BaselineKind.LCST, [ref], probe) == lcst_similarity(ref, probe)


def test_nearest_similarity_is_max_over_loop():
    rng = random.Random(8)
    for kind in BaselineKind:
        refs = [Sequence(tuple(rng.randrange(5) for _ in range(rng.randint(1, 10))), f"r{i}")
                for i in range(5)]
        probe = Sequence(tuple(rng.randrange(5) for _ in range(6)), "t")
        from seqcover.baselines import pairwise_baseline
        want = max(pairwise_baseline(kind, probe, r) for r in refs)
        assert nearest_similarity_to_set(kind, refs, probe) == want


@settings(max_examples=150, deadline=None)
@given(seq, st.lists(seq, min_size=1, max_size=6), st.sampled_from(list(BaselineKind)))
def test_nearest_similarity_equals_max_of_pairwise(query, refs, kind):
    # the per-query set-up, built once and reused over refs, against a fresh
    # set-up per pair; seq draws the empty sequence too
    want = max(pairwise_baseline(kind, query, r) for r in refs)
    assert nearest_similarity_to_set(kind, refs, query) == want


def test_nearest_similarity_rejects_empty_model():
    with pytest.raises(ConfigurationError):
        nearest_similarity_to_set(BaselineKind.LEV, [], Sequence((1,), "t"))
