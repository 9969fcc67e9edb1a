import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pair_count_auc, trapezoid_auc_oracle, trapezoid_roc_oracle
from seqcover import ConfigurationError, auc_from_scores, histogram, rank_auc, roc_curve

scores = st.lists(st.integers(0, 8).map(lambda n: Fraction(n, 8)), min_size=1, max_size=30)

EPSILON = Fraction(1, 2**80)


@st.composite
def mixed_score_classes(draw):
    """Two classes drawn from one shared pool of ints, floats and Fractions,
    so ties cross the classes. Each value also enters the pool nudged up by
    EPSILON: a distinct score that rounds to the same float, unless the
    value lies within about 2**-26 of zero."""
    values = draw(st.lists(
        st.one_of(
            st.integers(-4, 4),
            st.floats(-2, 2),
            st.fractions(-2, 2, max_denominator=12),
        ),
        min_size=1, max_size=5,
    ))
    pool = values + [Fraction(value) + EPSILON for value in values]
    drawn = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    return draw(drawn), draw(drawn)


@st.composite
def close_score_classes(draw):
    """Two classes drawn from one pool of rationals with denominators up to
    10**40 and values in [-3, 3], so ties cross the classes. Each value n/d
    enters with the neighbour c/e for which c·d - n·e = 1: the closest pair
    that such denominators allow, 1/(d·e) apart."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        denominator = draw(st.integers(1, 10**40))
        value = Fraction(draw(st.integers(-3 * denominator, 3 * denominator)), denominator)
        n, d = value.numerator, value.denominator
        e = -pow(n, -1, d) % d if d > 1 else 1
        pool += [value, Fraction((1 + n * e) // d, e)]
    drawn = st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    return draw(drawn), draw(drawn)


def test_perfect_separation():
    curve = roc_curve([0, 0, 0], [1, 1])
    assert (Fraction(0), Fraction(1)) in curve
    assert auc_from_scores([0, 0, 0], [1, 1]) == 1


def test_constant_scores_give_half():
    assert auc_from_scores([Fraction(1, 2)] * 4, [Fraction(1, 2)] * 3) == Fraction(1, 2)


def test_worked_pair_count():
    normals = [Fraction(1, 10), Fraction(4, 10)]
    attacks = [Fraction(3, 10), Fraction(9, 10)]
    assert pair_count_auc(normals, attacks) == Fraction(3, 4)
    assert auc_from_scores(normals, attacks) == Fraction(3, 4)
    assert rank_auc(normals, attacks) == Fraction(3, 4)


def test_curve_monotone_and_bounded():
    rng = random.Random(3)
    normals = [Fraction(rng.randint(0, 10), 10) for _ in range(25)]
    attacks = [Fraction(rng.randint(0, 10), 10) for _ in range(15)]
    curve = roc_curve(normals, attacks)
    assert curve[0] == (0, 0)
    assert curve[-1] == (1, 1)
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        assert x1 >= x0 and y1 >= y0
        assert 0 <= x1 <= 1 and 0 <= y1 <= 1


def test_empty_class_rejected():
    with pytest.raises(ConfigurationError, match="positive"):
        roc_curve([1], [])
    with pytest.raises(ConfigurationError, match="negative"):
        roc_curve([], [1])


@settings(max_examples=200, deadline=None)
@given(scores, scores)
def test_trapezoid_equals_rank_statistic(normals, attacks):
    assert auc_from_scores(normals, attacks) == rank_auc(normals, attacks)


@settings(max_examples=200, deadline=None)
@given(mixed_score_classes())
@example(([Fraction(1, 3) + EPSILON], [Fraction(1, 3)]))
@example(([0.1, Fraction(1, 10), 1], [Fraction(1, 10), Fraction(0.1) + EPSILON, 1.0]))
def test_sweep_is_exact_on_mixed_scores(classes):
    for normals, attacks in (classes, classes[::-1]):
        assert roc_curve(normals, attacks) == trapezoid_roc_oracle(normals, attacks)
        area = auc_from_scores(normals, attacks)
        assert area == trapezoid_auc_oracle(trapezoid_roc_oracle(normals, attacks))
        assert area == rank_auc(normals, attacks)


@settings(max_examples=200, deadline=None)
@given(close_score_classes())
@example(([Fraction(1, 10**40), Fraction(1, 10**40 - 1)], [Fraction(1, 10**40 - 1)]))  # the same float
@example(([Fraction(-7, 2), 3], [Fraction(-3, 1), Fraction(-7, 2)]))
def test_sweep_is_exact_on_close_rationals(classes):
    for normals, attacks in (classes, classes[::-1]):
        points = trapezoid_roc_oracle(normals, attacks)
        assert roc_curve(normals, attacks) == points
        area = auc_from_scores(normals, attacks)
        assert area == trapezoid_auc_oracle(points) == rank_auc(normals, attacks)


@pytest.mark.parametrize("function", [roc_curve, auc_from_scores, rank_auc])
@pytest.mark.parametrize("bad, error", [
    (float("nan"), ValueError),
    (float("inf"), OverflowError),
    (float("-inf"), OverflowError),
])
def test_non_finite_scores_rejected(function, bad, error):
    with pytest.raises(error):
        function([Fraction(1, 2), bad], [Fraction(1, 4)])
    with pytest.raises(error):
        function([Fraction(1, 2)], [bad, Fraction(1, 4)])


@settings(max_examples=100, deadline=None)
@given(scores, scores)
def test_rank_matches_pair_count(normals, attacks):
    assert rank_auc(normals, attacks) == pair_count_auc(normals, attacks)


@settings(max_examples=80, deadline=None)
@given(scores, scores)
def test_roc_invariant_under_monotone_transform(normals, attacks):
    def squash(v):
        return v * v / 2  # strictly increasing on [0, 1]

    before = roc_curve(normals, attacks)
    after = roc_curve([squash(v) for v in normals], [squash(v) for v in attacks])
    assert before == after


def test_auc_complement_on_tie_free_data():
    rng = random.Random(11)
    normals = rng.sample(range(1000), 20)
    attacks = rng.sample([x for x in range(1000, 2500)], 15)
    rng.shuffle(attacks)
    mixed_n = [Fraction(v, 2500) for v in normals]
    mixed_a = [Fraction(v, 2500) for v in attacks]
    assert auc_from_scores(mixed_n, mixed_a) + auc_from_scores(mixed_a, mixed_n) == 1


def test_histogram_last_bin_right_closed():
    bins = histogram([Fraction(1)] * 7, 10)
    assert bins[-1] == (Fraction(9, 10), 7)
    assert sum(count for _, count in bins) == 7


def test_histogram_empty_scores():
    bins = histogram([], 5)
    assert [count for _, count in bins] == [0] * 5


def test_histogram_uniform_grid():
    grid = [Fraction(i, 100) for i in range(100)]
    bins = histogram(grid, 10)
    assert [count for _, count in bins] == [10] * 10


def test_histogram_counts_sum():
    rng = random.Random(5)
    values = [Fraction(rng.randint(0, 64), 64) for _ in range(200)]
    bins = histogram(values, 7)
    assert sum(count for _, count in bins) == 200


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram([Fraction(1, 2)], 0)
    with pytest.raises(ValueError):
        histogram([Fraction(3, 2)], 4)
