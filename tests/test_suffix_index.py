import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RAW_SYMBOLS
from oracles import lcst_dp, naive_contains, naive_longest_match
from seqcover import GeneralizedSuffixIndex, Sequence
from seqcover.suffix_tree import _NONE


def _index(*seqs):
    return GeneralizedSuffixIndex([Sequence(tuple(s), str(i)) for i, s in enumerate(seqs)])


def _contains(idx, query):
    """Is the whole query indexed?"""
    return idx.contains_range(query, 0, len(query))


def test_contains_substring_of_sole_sequence():
    assert _contains(_index([1, 2, 3]), (2, 3)) is True


def test_contains_rejects_wrap():
    assert _contains(_index([1, 2, 3]), (3, 1)) is False


def test_no_cross_sequence_concatenation():
    # [0,0,1]+[1,1,0] concatenated would contain [0,1,1]; the index must not
    assert _contains(_index([0, 0, 1], [1, 1, 0]), (0, 1, 1)) is False


def test_raw_query_cannot_match_through_a_sentinel():
    # raw tuples skip Sequence's non-negative check; -1 was the first sentinel
    idx = GeneralizedSuffixIndex([(1, 2, 3), (4, 5)])
    assert _contains(idx, (3, -1)) is False
    assert idx.longest_match_from((3, -1, 4), 0) == 1


# (indexed sequences, a query that reaches a state with no transition that
# a query symbol can take): state 0 of an empty index has no transition at
# all, and only sentinels' transitions leave the state of a sequence's end
DEAD_ENDS = {
    "empty index": ((), ()),
    "one sentinel": (((1, 2),), (1, 2)),
    "two sentinels": (((5,), (4, 5)), (5,)),
}


@pytest.mark.parametrize("symbol", RAW_SYMBOLS)
@pytest.mark.parametrize("sequences, reach", DEAD_ENDS.values(), ids=DEAD_ENDS)
def test_no_raw_symbol_steps_from_a_dead_end(sequences, reach, symbol):
    idx = GeneralizedSuffixIndex(sequences)
    query = (*reach, symbol)
    assert _contains(idx, query) is False
    assert idx.longest_match_from(query, 0) == max(len(reach), 1)
    assert idx.longest_common_substring(query) == len(reach)


def test_contains_rejects_empty_query():
    with pytest.raises(ValueError):
        _contains(_index([1, 2]), ())


def test_longest_match_from_examples():
    assert _index([1, 2, 3, 4]).longest_match_from((2, 3, 9), 0) == 2
    assert _index([1, 2]).longest_match_from((9, 9), 0) == 1
    assert _index([1, 2, 3]).longest_match_from((1, 2, 3), 0) == 3


def test_longest_match_from_bounds():
    idx = _index([1, 2])
    with pytest.raises(ValueError):
        idx.longest_match_from((1, 2), 2)
    with pytest.raises(ValueError):
        idx.longest_match_from((1, 2), -1)


def test_empty_sequences_contribute_nothing():
    idx = _index([], [5])
    assert _contains(idx, (5,)) is True
    assert idx.sequence_count == 1


def test_stats_shape():
    stats = _index([1, 2, 3]).stats()
    n = stats["indexed_symbols"]  # suffix automaton bounds, valid for n >= 3
    assert stats["nodes"] <= 2 * n - 1
    assert stats["edges"] <= 3 * n - 4
    assert stats["indexed_symbols"] == 4  # three symbols plus one sentinel
    assert stats["sequences"] == 1


sets_and_query = st.tuples(
    st.lists(st.lists(st.integers(0, 7), max_size=24), min_size=1, max_size=5),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(sets_and_query)
def test_contains_matches_naive_scan(case):
    seqs, query = case
    idx = _index(*seqs)
    assert _contains(idx, tuple(query)) == naive_contains(seqs, query)


@settings(max_examples=100, deadline=None)
@given(sets_and_query)
def test_prefix_closure(case):
    seqs, query = case
    idx = _index(*seqs)
    if _contains(idx, tuple(query)):
        for cut in range(1, len(query)):
            assert _contains(idx, tuple(query[:cut]))


def test_every_true_query_has_true_prefixes_on_real_substrings():
    rng = random.Random(4242)
    for _ in range(50):
        seqs = [[rng.randrange(4) for _ in range(rng.randint(1, 30))]
                for _ in range(rng.randint(1, 4))]
        idx = _index(*seqs)
        pick = rng.choice([s for s in seqs if s])
        i = rng.randrange(len(pick))
        j = rng.randint(i + 1, len(pick))
        sub = tuple(pick[i:j])
        assert _contains(idx, sub)
        for cut in range(1, len(sub) + 1):
            assert _contains(idx, sub[:cut])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), max_size=20), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=14),
)
def test_longest_match_matches_prefix_scan(seqs, s):
    idx = _index(*seqs)
    for start in range(len(s)):
        assert idx.longest_match_from(tuple(s), start) == naive_longest_match(seqs, s, start)


def test_medium_corpus_many_sentinels():
    # syscall-sized alphabet, enough sequences to cycle many sentinels
    rng = random.Random(2024)
    seqs = [[rng.randrange(300) for _ in range(rng.randint(5, 120))] for _ in range(120)]
    idx = _index(*seqs)
    assert idx.sequence_count == 120
    for _ in range(300):
        if rng.random() < 0.5:  # genuine substring
            src = seqs[rng.randrange(len(seqs))]
            i = rng.randrange(len(src))
            j = rng.randint(i + 1, min(len(src), i + 12))
            query = tuple(src[i:j])
        else:
            query = tuple(rng.randrange(300) for _ in range(rng.randint(1, 6)))
        assert _contains(idx, query) == naive_contains(seqs, query)


def test_contains_range_equals_contains_on_slices():
    rng = random.Random(31)
    for _ in range(60):
        seqs = [[rng.randrange(4) for _ in range(rng.randint(1, 20))]
                for _ in range(rng.randint(1, 3))]
        idx = _index(*seqs)
        probe = tuple(rng.randrange(5) for _ in range(rng.randint(1, 15)))
        for _ in range(10):
            i = rng.randrange(len(probe))
            j = rng.randint(i + 1, len(probe))
            assert idx.contains_range(probe, i, j) == naive_contains(seqs, probe[i:j])
    with pytest.raises(ValueError):
        _index([1]).contains_range((1, 2), 1, 1)


def test_sentinel_isolation_random():
    rng = random.Random(77)
    for _ in range(100):
        a = [rng.randrange(3) for _ in range(rng.randint(1, 10))]
        b = [rng.randrange(3) for _ in range(rng.randint(1, 10))]
        idx = _index(a, b)
        # a suffix of a glued to a prefix of b must not be reported present
        # unless it genuinely occurs inside a or b
        for cut_a in range(1, min(4, len(a) + 1)):
            for cut_b in range(1, min(4, len(b) + 1)):
                glued = tuple(a[-cut_a:] + b[:cut_b])
                assert _contains(idx, glued) == naive_contains([a, b], glued)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=12), max_size=4),
    st.lists(st.lists(st.lists(st.integers(0, 3), max_size=12), max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=10), min_size=1, max_size=3),
)
def test_extend_equals_a_fresh_build(first, chunks, queries):
    # chunks and the sequences in them may be empty
    grown = GeneralizedSuffixIndex(first)
    for chunk in chunks:
        grown.extend(chunk)
    everything = first + [seq for chunk in chunks for seq in chunk]
    fresh = GeneralizedSuffixIndex(everything)
    assert grown.stats() == fresh.stats()
    for query in map(tuple, queries):
        for start in range(len(query)):
            assert grown.longest_match_from(query, start) == fresh.longest_match_from(query, start)
    # the tail of one sequence glued to the head of the next spans a sentinel
    indexed = [seq for seq in everything if seq]
    for a, b in zip(indexed, indexed[1:]):
        glued = tuple(a[-3:] + b[:3])
        assert _contains(grown, glued) == naive_contains(everything, glued)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=24), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12), min_size=1, max_size=3),
    st.tuples(st.lists(st.integers(0, 5), max_size=5), st.integers(-3, -1), st.lists(st.integers(0, 5), max_size=5)),
    st.data(),
)
def test_queries_of_a_grown_index_equal_naive_scans(seqs, queries, raw, data):
    # some sequences at build time, the rest in 1 to 3 extend calls; query
    # symbols 4 and 5 are never indexed, and the raw tuple holds a negative int
    at_build = data.draw(st.integers(0, len(seqs)))
    cuts = sorted(data.draw(st.lists(st.integers(at_build, len(seqs)), max_size=2)))
    idx = GeneralizedSuffixIndex(seqs[:at_build])
    for lo, hi in zip([at_build, *cuts], [*cuts, len(seqs)]):
        idx.extend(seqs[lo:hi])
    head, negative, tail = raw
    for query in [*map(tuple, queries), (*head, negative, *tail)]:
        for start in range(len(query)):
            assert idx.longest_match_from(query, start) == naive_longest_match(seqs, query, start)
            for end in range(start + 1, len(query) + 1):
                assert idx.contains_range(query, start, end) == naive_contains(seqs, query[start:end])
        assert idx.longest_common_substring(query) == max(lcst_dp(a, query) for a in seqs)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=10), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), max_size=16),
    st.permutations(RAW_SYMBOLS),
)
@example([[0, 1], [2]], [1, 4, 2], (-7, 0, 255, 256, -1, 10**6, 2**63, 2**70))  # 4 -> -1 between two sequences
def test_longest_common_substring_ignores_an_injective_relabelling(sequences, query, targets):
    # the suffix-link fallback reads the layout apart from the walks covering makes
    def relabel(symbols):
        return tuple(targets[symbol] for symbol in symbols)

    expected = max(lcst_dp(a, query) for a in sequences)
    assert GeneralizedSuffixIndex(sequences).longest_common_substring(query) == expected
    assert GeneralizedSuffixIndex(map(relabel, sequences)).longest_common_substring(relabel(query)) == expected


def _layout(idx):
    """Every slot of the index, with each sequence's sentinel read as one
    marker: a fresh build makes fresh sentinels."""
    def symbol(value):
        return value if type(value) is int else "none" if value is _NONE else "sentinel"

    more = {state: {symbol(c): target for c, target in rest.items()} for state, rest in idx._more.items()}
    return ([symbol(c) for c in idx._sym], idx._to, more, idx._link, idx._length, idx.stats())


def test_extend_refuses_a_sequence_that_could_pass_the_state_cap(monkeypatch):
    first, second, refused = [1, 2, 3, 1, 2], [2, 3, 4], [5, 6, 7, 8]
    fresh = GeneralizedSuffixIndex([first, second])
    # room for first and second, and one state short of refused's bound of
    # two states per symbol and sentinel
    cap = fresh.stats()["nodes"] + 2 * (len(refused) + 1) - 1
    monkeypatch.setattr(GeneralizedSuffixIndex, "_state_cap", cap)
    idx = GeneralizedSuffixIndex([first])
    with pytest.raises(ValueError, match=f"cap of {cap} states"):
        idx.extend([second, refused, [9]])
    assert _layout(idx) == _layout(fresh)
    idx.extend([[9]])  # a sequence within the cap still extends the index
    assert _layout(idx) == _layout(GeneralizedSuffixIndex([first, second, [9]]))


def _phrase_corpus(rng, count=60, phrases=40, alphabet=50):
    """Traces that chain short phrases, each followed by one of two others,
    with a symbol now and then replaced: like system-call traces, most of
    their automaton's states have one transition (92% here)."""
    words = [[rng.randrange(alphabet) for _ in range(rng.randint(3, 20))] for _ in range(phrases)]
    follows = [rng.sample(range(phrases), 2) for _ in range(phrases)]
    corpus = []
    for _ in range(count):
        phrase, trace = rng.randrange(phrases), []
        for _ in range(rng.randint(20, 120)):
            trace += words[phrase]
            if rng.random() < 0.1:
                trace[rng.randrange(len(trace))] = rng.randrange(alphabet)
            phrase = rng.choice(follows[phrase])
        corpus.append(trace)
    return corpus


def test_build_peak_per_indexed_symbol():
    # about 80 B here with 4-byte arrays and a map of branch states; 8-byte
    # arrays and a dict slot in every state took about 106 B
    corpus = _phrase_corpus(random.Random(0))
    tracemalloc.start()
    try:
        idx = GeneralizedSuffixIndex(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / idx.stats()["indexed_symbols"] < 92
