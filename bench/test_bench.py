"""Self-tests for the benchmark's own code (corpus, spans, checks).

Run with ``python3 -m pytest bench``; they need no seqcover index and
finish in a few seconds.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
from checks import Haystack, covering_ok, greedy_maximal, output_digest
from spans import Recorder, layer_totals, self_times


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_corpus_bytes(tmp_path):
    corpus.generate("compare", 7, tmp_path / "a")
    corpus.generate("compare", 7, tmp_path / "b")
    corpus.generate("compare", 8, tmp_path / "c")
    first, again, other = (_tree(tmp_path / name) for name in "abc")
    assert first == again
    assert first.keys() == other.keys()  # same shape ...
    assert first != other  # ... different content


def test_corpus_shape_is_exact(tmp_path):
    corpus.generate("compare", 3, tmp_path)
    for split, (count, total) in corpus.SHAPES["compare"].items():
        files = [p for p in (tmp_path / split).rglob("*") if p.is_file()]
        assert len(files) == count
        assert sum(len(p.read_text().split()) for p in files) == total
    categories = {p.parent.name for p in (tmp_path / "attack").rglob("*.txt")}
    assert categories == set(corpus.ATTACK_CATEGORIES)


@pytest.mark.parametrize("count,total", [(1, 8), (5, 100), (833, 300_000)])
def test_split_lengths_sum_to_total(count, total):
    lengths = corpus.split_lengths(random.Random(count), count, total)
    assert len(lengths) == count and sum(lengths) == total and min(lengths) >= 8


# cli [0, 10]
#   traces [1, 3]
#     traces [1.5, 2.5]      nested in its own layer: counted once in total
#   enrichment [4, 9]
#     suffix_tree [5, 7]
#     evaluation [7.5, 8]
HAND_BUILT = [
    ["cli", 0.0, 10.0, None],
    ["traces", 1.0, 3.0, 0],
    ["traces", 1.5, 2.5, 1],
    ["enrichment", 4.0, 9.0, 0],
    ["suffix_tree", 5.0, 7.0, 3],
    ["evaluation", 7.5, 8.0, 3],
]


def test_self_times_on_hand_built_tree():
    assert self_times(HAND_BUILT) == [3.0, 1.0, 1.0, 2.5, 2.0, 0.5]


def test_layer_totals_on_hand_built_tree():
    totals = layer_totals(HAND_BUILT)
    assert totals["cli"] == {"total": 10.0, "self": 3.0, "count": 1}
    assert totals["traces"] == {"total": 2.0, "self": 2.0, "count": 2}
    assert totals["enrichment"] == {"total": 5.0, "self": 2.5, "count": 1}
    assert totals["suffix_tree"] == {"total": 2.0, "self": 2.0, "count": 1}
    assert sum(row["self"] for row in totals.values()) == 10.0


def test_recorder_builds_the_tree_and_charges_gc_to_the_open_span():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("enrichment")          # t=0
    inner = rec.open("suffix_tree")         # t=1
    rec.on_gc("start", {})                  # t=2
    rec.on_gc("stop", {})                   # t=3
    rec.close(inner)                        # t=4
    rec.on_gc("start", {})                  # t=5
    rec.on_gc("stop", {})                   # t=6
    rec.close(outer)                        # t=7
    assert rec.spans == [["enrichment", 0.0, 7.0, None], ["suffix_tree", 1.0, 4.0, 0]]
    assert rec.gc_pause == {"suffix_tree": 1.0, "enrichment": 1.0}
    assert rec.gc_collections == {"suffix_tree": 1, "enrichment": 1}
    assert self_times(rec.spans) == [4.0, 3.0]


def test_recorder_rejects_out_of_order_close():
    rec = Recorder()
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_wrap_counts_inside_the_span():
    rec = Recorder()
    double = rec.wrap("x", lambda v: 2 * v, lambda result, args, kwargs: rec.counters.update(x=result))
    assert double(21) == 42
    assert rec.counters["x"] == 42 and len(rec.spans) == 1 and rec.spans[0][0] == "x"


def test_covering_ok():
    assert covering_ok(5, [(0, 2), (2, 5)], Fraction(4, 5))
    assert not covering_ok(5, [(0, 2), (3, 5)], Fraction(4, 5))  # gap
    assert not covering_ok(5, [(0, 2), (2, 4)], Fraction(4, 5))  # not exhaustive
    assert not covering_ok(5, [(0, 2), (2, 5)], Fraction(3, 5))  # wrong score


def test_haystack_matches_whole_symbols_within_one_trace():
    hay = Haystack([(1, 2, 3), (4, 5), (12,)])
    assert (2, 3) in hay and (4, 5) in hay and (12,) in hay
    assert (3, 4) not in hay  # would span two traces
    assert (2,) in hay and (1,) in hay
    assert (5, 12) not in hay


def test_greedy_maximal():
    hay = Haystack([(1, 2, 3), (3, 4)])
    symbols = (1, 2, 3, 4, 9)
    assert greedy_maximal(hay, symbols, [(0, 3), (3, 4), (4, 5)])
    assert not greedy_maximal(hay, symbols, [(0, 2), (2, 4), (4, 5)])  # (1,2) extends to (1,2,3)
    assert not greedy_maximal(hay, symbols, [(0, 4), (4, 5)])  # (1,2,3,4) is not admissible


def test_output_digest_ignores_elapsed_columns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for directory, elapsed in ((a, "1.5"), (b, "2.5")):
        directory.mkdir()
        (directory / "trace.csv").write_text(f"iteration,auc,elapsed_seconds\n0,0.9,{elapsed}\n")
        (directory / "manifest.json").write_text(str(directory))
    assert output_digest(a) == output_digest(b)
    (b / "trace.csv").write_text("iteration,auc,elapsed_seconds\n0,0.8,2.5\n")
    assert output_digest(a) != output_digest(b)
