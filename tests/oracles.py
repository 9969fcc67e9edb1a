"""Independent brute-force oracles the tests check the library against.

Kept deliberately naive and separate from the implementations under test:
different algorithms, no shared helpers. The one exception is the covering
oracle: ``dp_optimal_cover_oracle`` searches segmentations on its own, but
asks the model's suffix index whether a segment is admissible.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def naive_contains(sequences, query) -> bool:
    """Sliding-window substring scan over raw symbol tuples."""
    q = tuple(query)
    m = len(q)
    for seq in sequences:
        t = tuple(getattr(seq, "symbols", seq))
        for i in range(len(t) - m + 1):
            if t[i:i + m] == q:
                return True
    return False


def naive_longest_match(sequences, s, start: int) -> int:
    """Linear scan of all prefixes from start; floor of 1."""
    t = tuple(getattr(s, "symbols", s))
    best = 1
    for end in range(start + 1, len(t) + 1):
        if naive_contains(sequences, t[start:end]):
            best = end - start
    return best


def in_s_sub(model, symbols) -> bool:
    """Admissibility of a covering segment.

    Single symbols are always admissible (the substring pool is drawn from
    S together with the whole alphabet); longer segments must occur
    verbatim inside one indexed sequence.
    """
    if len(symbols) == 1:
        return True
    return model.index.contains_range(symbols, 0, len(symbols))


def dp_optimal_cover_oracle(model, s, max_len: int = 256) -> int:
    """Exact minimum segment count, independent of the greedy extractors.

    Shortest path over the segmentation DAG whose edge (i, j) exists iff
    j == i + 1 or s[i:j] is a verbatim substring of the model. Candidate
    edges get their own membership probe (no reliance on prefix closure or
    maximal extension), which is quadratically many tests, hence the cap.
    """
    symbols = tuple(getattr(s, "symbols", s))
    n = len(symbols)
    if n == 0:
        raise ValueError("oracle requires a non-empty sequence")
    if n > max_len:
        raise ValueError(f"oracle capped at {max_len} symbols to bound probe count, got {n}")
    infinity = n + 1
    dist = [0] + [infinity] * n
    for i in range(n):
        step = dist[i] + 1
        if step >= infinity:
            continue
        for j in range(i + 1, n + 1):
            if step < dist[j] and (j == i + 1 or in_s_sub(model, symbols[i:j])):
                dist[j] = step
    return dist[n]


def lev_memo(a, b) -> int:
    """Top-down memoized edit distance."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))


def lev_two_row(a, b) -> int:
    """Bottom-up edit distance, one table row at a time (vs the bit-vector kernel)."""
    a = tuple(a)
    b = tuple(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a):
        current = [i + 1]
        for j, y in enumerate(b):
            current.append(min(
                previous[j + 1] + 1,        # deletion
                current[j] + 1,             # insertion
                previous[j] + (x != y),     # substitution / match
            ))
        previous = current
    return previous[-1]


def lcsq_two_row(a, b) -> int:
    """Bottom-up longest common subsequence length, one table row at a time."""
    a = tuple(a)
    b = tuple(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b):
            if x == y:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


def lcsq_memo(a, b) -> int:
    """Top-down memoized longest common subsequence length."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def lcsq_enum(a, b) -> int:
    """Exhaustive subsequence enumeration; only usable for tiny inputs."""
    a = tuple(a)
    b = tuple(b)

    def is_subsequence(x, y):
        it = iter(y)
        return all(c in it for c in x)

    for size in range(min(len(a), len(b)), 0, -1):
        for picked in combinations(range(len(a)), size):
            if is_subsequence([a[i] for i in picked], b):
                return size
    return 0


def lcst_dp(a, b) -> int:
    """Quadratic longest-common-suffix table for the longest common substring."""
    a = tuple(a)
    b = tuple(b)
    best = 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            run = prev[j] + 1 if x == y else 0
            cur.append(run)
            if run > best:
                best = run
        prev = cur
    return best


def pair_count_auc(normal_scores, attack_scores):
    """AUC as an explicit pair count: attacks above normals, ties half."""
    total = Fraction(0)
    for attack in attack_scores:
        for normal in normal_scores:
            if attack > normal:
                total += 1
            elif attack == normal:
                total += Fraction(1, 2)
    return total / (len(normal_scores) * len(attack_scores))


def trapezoid_roc_oracle(normal_scores, attack_scores):
    """ROC points as ``Fraction`` rates, one per distinct pooled score from
    the most anomalous down, starting at (0, 0)."""
    negatives = len(normal_scores)
    positives = len(attack_scores)
    pooled = [(Fraction(score), 1) for score in attack_scores]
    pooled += [(Fraction(score), 0) for score in normal_scores]
    pooled.sort(key=lambda pair: pair[0], reverse=True)
    points = [(Fraction(0), Fraction(0))]
    true_pos = false_pos = 0
    i = 0
    while i < len(pooled):
        threshold = pooled[i][0]
        while i < len(pooled) and pooled[i][0] == threshold:
            if pooled[i][1]:
                true_pos += 1
            else:
                false_pos += 1
            i += 1
        points.append((Fraction(false_pos, negatives), Fraction(true_pos, positives)))
    return tuple(points)


def trapezoid_auc_oracle(points):
    """Trapezoidal area under ROC points, summed in ``Fraction`` arithmetic."""
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area
