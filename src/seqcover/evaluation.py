"""ROC curves, AUC and score histograms over scored normal vs attack sets.

Attacks are the positive class and inputs are anomaly scores (higher means
more anomalous). All arithmetic is exact: the trapezoidal area under the
ROC curve equals the Mann-Whitney rank statistic (ties get half credit) to
the last digit, not merely within tolerance.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .errors import ConfigurationError


def _fractions(values) -> list[Fraction]:
    return [value if isinstance(value, Fraction) else Fraction(value) for value in values]


def _roc_counts(normal_scores, attack_scores) -> list[tuple[int, int]]:
    """(false positives, true positives) after each distinct score, sweeping
    the pooled scores from most to least anomalous on their exact values."""
    if not attack_scores:
        raise ConfigurationError("ROC needs attack scores: the positive class is empty")
    if not normal_scores:
        raise ConfigurationError("ROC needs normal scores: the negative class is empty")
    attacks, normals = _fractions(attack_scores), _fractions(normal_scores)
    # Two distinct rationals whose denominators are at most d differ by at
    # least 1/d², so numerator·d² // denominator is an int key that orders
    # and ties the scores exactly as their values do, and sorts without a
    # Fraction comparison.
    scale = max(value.denominator for value in chain(attacks, normals)) ** 2
    pooled = [(value.numerator * scale // value.denominator, 1) for value in attacks]
    pooled += [(value.numerator * scale // value.denominator, 0) for value in normals]
    pooled.sort(key=itemgetter(0), reverse=True)
    counts = []
    true_pos = 0
    threshold = pooled[0][0]
    for i, (score, is_attack) in enumerate(pooled):
        if score != threshold:
            counts.append((i - true_pos, true_pos))
            threshold = score
        true_pos += is_attack
    counts.append((len(pooled) - true_pos, true_pos))
    return counts


def roc_curve(normal_scores, attack_scores) -> tuple[tuple[Fraction, Fraction], ...]:
    """(false positive rate, true positive rate) points from (0,0) to (1,1),
    one per distinct score as the threshold sweeps from most to least anomalous."""
    negatives = len(normal_scores)
    positives = len(attack_scores)
    points = [(Fraction(0), Fraction(0))]
    for false_pos, true_pos in _roc_counts(normal_scores, attack_scores):
        points.append((Fraction(false_pos, negatives), Fraction(true_pos, positives)))
    return tuple(points)


def rank_auc(normal_scores, attack_scores) -> Fraction:
    """Probability a random attack outscores a random normal, ties half credit.

    Independent cross-check for the trapezoidal area; computed directly from
    the score pairs via binary search over the sorted normals.
    """
    if not attack_scores or not normal_scores:
        raise ConfigurationError("rank AUC needs both classes non-empty")
    normals = sorted(_fractions(normal_scores))
    total = Fraction(0)
    for score in _fractions(attack_scores):
        below = bisect_left(normals, score)
        tied = bisect_right(normals, score) - below
        total += below + Fraction(tied, 2)
    return total / (len(normals) * len(attack_scores))


def auc_from_scores(normal_scores, attack_scores) -> Fraction:
    """Trapezoidal area under the ROC curve, summed over integer counts."""
    twice_area = 0
    false_pos = true_pos = 0
    for next_fp, next_tp in _roc_counts(normal_scores, attack_scores):
        twice_area += (next_fp - false_pos) * (true_pos + next_tp)
        false_pos, true_pos = next_fp, next_tp
    return Fraction(twice_area, 2 * len(normal_scores) * len(attack_scores))


def histogram(scores, bin_count: int) -> list[tuple[Fraction, int]]:
    """Counts over equal-width bins of [0, 1]; the last bin is right-closed
    so a score of exactly 1 lands in it. Returns (bin lower edge, count)."""
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    counts = [0] * bin_count
    for value in _fractions(scores):
        if value < 0 or value > 1:
            raise ValueError(f"score {value} outside [0, 1]")
        idx = (value.numerator * bin_count) // value.denominator
        if idx == bin_count:
            idx -= 1
        counts[idx] += 1
    return [(Fraction(i, bin_count), count) for i, count in enumerate(counts)]
