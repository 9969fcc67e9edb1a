import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcsq_enum, lcsq_memo, lcsq_two_row, lcst_dp, lev_memo, lev_two_row
from seqcover import BaselineKind, ConfigurationError, Sequence, nearest_similarity_to_set, pairwise_baseline
from seqcover.baselines import _lcsq_to, _lcst_to, _levenshtein_to

seq = st.lists(st.integers(0, 6), max_size=16)


def test_lev_identical_is_one():
    assert pairwise_baseline(BaselineKind.LEV, (1, 2, 3), (1, 2, 3)) == 1


def test_lev_against_empty_is_zero():
    assert pairwise_baseline(BaselineKind.LEV, (1, 2, 3), ()) == 0


def test_lev_worked_pair():
    # distance 3: substitute 1->2, substitute 4->2, insert 6
    a, b = (1, 2, 3, 3, 4, 5), (2, 2, 3, 3, 2, 5, 6)
    assert _levenshtein_to(a)(b) == lev_memo(a, b) == 3
    assert pairwise_baseline(BaselineKind.LEV, a, b) == 1 - Fraction(3, 7)


def test_both_empty_pairs_score_one():
    assert pairwise_baseline(BaselineKind.LEV, (), ()) == 1
    assert pairwise_baseline(BaselineKind.LCSQ, (), ()) == 1
    assert pairwise_baseline(BaselineKind.LCST, (), ()) == 1


def test_lcsq_identical():
    assert pairwise_baseline(BaselineKind.LCSQ, (4, 4, 4), (4, 4, 4)) == 1


def test_lcsq_disjoint_alphabets():
    assert pairwise_baseline(BaselineKind.LCSQ, (1, 2), (8, 9)) == 0


def test_lcsq_gapped_example():
    assert lcsq_enum((1, 3, 2, 4), (1, 2, 3, 4)) == 3
    assert pairwise_baseline(BaselineKind.LCSQ, (1, 3, 2, 4), (1, 2, 3, 4)) == Fraction(3, 4)


def test_lcst_examples():
    assert pairwise_baseline(BaselineKind.LCST, (1, 2, 3, 4), (1, 2, 3, 4)) == 1
    assert pairwise_baseline(BaselineKind.LCST, (1, 2), (8, 9)) == 0
    assert pairwise_baseline(BaselineKind.LCST, (1, 2, 3, 4), (9, 2, 3, 8)) == Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lev_matches_memo_oracle(a, b):
    assert _levenshtein_to(a)(b) == lev_memo(a, b)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lcsq_matches_memo_oracle(a, b):
    assert _lcsq_to(a)(b) == lcsq_memo(a, b)


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
    assert _levenshtein_to(a)(b) == lev_two_row(a, b)


@settings(max_examples=80, deadline=None)
@given(long_pair)
def test_bit_vector_lcsq_matches_two_row_dp(pair):
    a, b = pair
    assert _lcsq_to(a)(b) == lcsq_two_row(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=9), st.lists(st.integers(0, 3), max_size=9))
def test_lcsq_matches_enumeration_on_tiny_inputs(a, b):
    assert _lcsq_to(a)(b) == lcsq_enum(a, b)


@settings(max_examples=200, deadline=None)
@given(seq, seq)
def test_lcst_automaton_matches_quadratic_dp(a, b):
    assert _lcst_to(a)(b) == lcst_dp(a, b)


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_symmetry_and_range(a, b):
    for kind in BaselineKind:
        forward = pairwise_baseline(kind, a, b)
        assert forward == pairwise_baseline(kind, b, a)
        assert 0 <= forward <= 1


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_substring_never_beats_subsequence(a, b):
    assert pairwise_baseline(BaselineKind.LCST, a, b) <= pairwise_baseline(BaselineKind.LCSQ, a, b)


@settings(max_examples=80, deadline=None)
@given(seq, seq, seq)
def test_lev_triangle_inequality(a, b, c):
    assert _levenshtein_to(a)(c) <= _levenshtein_to(a)(b) + _levenshtein_to(b)(c)


def test_nearest_similarity_exact_member():
    refs = [Sequence((1, 2, 3), "r0"), Sequence((9, 9), "r1")]
    assert nearest_similarity_to_set(BaselineKind.LEV, refs, Sequence((9, 9), "t")) == 1


def test_nearest_similarity_singleton_equals_pairwise():
    ref = Sequence((1, 2, 3, 4), "r")
    probe = Sequence((1, 2, 9, 4), "t")
    assert nearest_similarity_to_set(BaselineKind.LCST, [ref], probe) == pairwise_baseline(BaselineKind.LCST, ref, probe)


def test_nearest_similarity_is_max_over_loop():
    rng = random.Random(8)
    for kind in BaselineKind:
        refs = [Sequence(tuple(rng.randrange(5) for _ in range(rng.randint(1, 10))), f"r{i}")
                for i in range(5)]
        probe = Sequence(tuple(rng.randrange(5) for _ in range(6)), "t")
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
