import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcover import (
    ConfigurationError,
    Sequence,
    TraceParseError,
    deduplicate,
    load_dataset,
    load_traces,
    parse_trace,
)
from seqcover import traces

symbol_lists = st.lists(st.integers(min_value=0, max_value=5000), max_size=60)

# every code point that str.split() treats as a separator
SPLIT_WHITESPACE = [chr(c) for c in range(0x110000) if not chr(c).split()]
# tokens int() reads that the token rule refuses: a sign, an underscore, non-ASCII digits
INT_ONLY_TOKENS = ["+5", "1_000", "\u0663", "\uff13"]
trace_texts = st.lists(
    st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(SPLIT_WHITESPACE), st.characters(),
              st.sampled_from(["+", "-", "_", "\u0663", "\uff13"])),
    max_size=20,
).map("".join)
# file contents: few distinct symbols, so that files of one load share tokens
file_texts = st.lists(
    st.one_of(st.integers(0, 12).map(str), st.integers(0, 12).map(str),
              st.sampled_from([" ", "\n", "\r\n", "\t", "\u00a0", "\x1c", "\u2028"]),
              st.sampled_from(["x", "-3", *INT_ONLY_TOKENS])),
    max_size=12,
).map("".join)


def test_parse_simple():
    assert parse_trace("6 6 63 6 42").symbols == (6, 6, 63, 6, 42)


def test_parse_empty():
    assert parse_trace("").symbols == ()


def test_parse_mixed_whitespace():
    assert parse_trace("3\n5 168\n11").symbols == (3, 5, 168, 11)


def test_parse_rejects_non_integer():
    with pytest.raises(TraceParseError, match=r"'4x' at offset 2"):
        parse_trace("7 4x 9")


def test_parse_rejects_negative():
    with pytest.raises(TraceParseError, match="-3"):
        parse_trace("1 -3")


@given(trace_texts)
def test_parse_trace_tokens_are_those_of_str_split(text):
    # the tokens, and the first bad one named in the error, are those of text.split()
    values = []
    for token in text.split():
        if not re.fullmatch("[0-9]+", token):  # the token rule: ASCII decimal digits
            with pytest.raises(TraceParseError) as error:
                parse_trace(text)
            assert repr(token) in str(error.value)
            return
        values.append(int(token))
    assert parse_trace(text).symbols == tuple(values)


def test_parse_trace_reads_tokens_as_int_does():
    # it does not: int() reads each of these, the token rule refuses each
    for token in INT_ONLY_TOKENS:
        assert int(token) >= 0
        with pytest.raises(TraceParseError, match=re.escape(f"{token!r} at offset 4 in f")):
            parse_trace(f"7 1 {token} 9", "f")


def test_sequence_rejects_negative_symbols():
    with pytest.raises(ValueError):
        Sequence((1, -1))


@given(symbol_lists)
def test_parse_serialize_round_trip(symbols):
    seq = Sequence(tuple(symbols))
    assert parse_trace(" ".join(map(str, seq.symbols))).symbols == seq.symbols


def test_deduplicate_keeps_first_in_order():
    seqs = [Sequence((1, 2), "a"), Sequence((1, 2), "b"), Sequence((3,), "c")]
    kept = deduplicate(seqs)
    assert [s.source_id for s in kept] == ["a", "c"]


def test_deduplicate_empty():
    assert deduplicate([]) == []


def test_deduplicate_distinct_lengths_kept():
    seqs = [Sequence((1,), "a"), Sequence((1, 1), "b")]
    assert deduplicate(seqs) == seqs


@given(st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=4), max_size=12))
def test_deduplicate_idempotent(raw):
    seqs = [Sequence(tuple(sym), str(i)) for i, sym in enumerate(raw)]
    once = deduplicate(seqs)
    assert deduplicate(once) == once


def _write(dirpath, name, text):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / name).write_text(text)


def test_load_dataset_counts_and_categories(tmp_path):
    for i in range(4):
        _write(tmp_path / "train", f"t{i}.txt", f"1 2 {i}")
    _write(tmp_path / "val", "v0.txt", "9 9")
    _write(tmp_path / "attack" / "catA", "a0.txt", "7 7 7")
    _write(tmp_path / "attack", "loose.txt", "8 8")
    ds = load_dataset(tmp_path / "train", tmp_path / "val", tmp_path / "attack")
    assert len(ds.normal_train) == 4
    assert len(ds.normal_validation) == 1
    assert len(ds.attacks) == 2


def test_load_dataset_reads_every_split_through_load_traces(tmp_path, monkeypatch):
    _write(tmp_path / "train", "t0.txt", "1 2 3")
    _write(tmp_path / "val", "v0.txt", "4 5")
    _write(tmp_path / "attack" / "catA" / "deeper", "a0.txt", "7 7 7")
    _write(tmp_path / "attack", "loose.txt", "8 8")
    dirs = (tmp_path / "train", tmp_path / "val", tmp_path / "attack")
    expected = load_dataset(*dirs)
    calls = []

    def recorder(path, one_trace_per="file"):
        calls.append(path)
        return load_traces(path, one_trace_per)

    monkeypatch.setattr(traces, "load_traces", recorder)
    assert load_dataset(*dirs) == expected
    assert sorted(calls) == sorted(dirs)
    assert len(expected.attacks) == 2


def test_load_dataset_cross_split_dedup(tmp_path):
    _write(tmp_path / "train", "t0.txt", "1 2 3")
    _write(tmp_path / "val", "v0.txt", "1 2 3")
    _write(tmp_path / "val", "v1.txt", "4 5")
    _write(tmp_path / "attack", "a0.txt", "9")
    ds = load_dataset(tmp_path / "train", tmp_path / "val", tmp_path / "attack")
    assert len(ds.normal_validation) == 1
    assert ds.normal_validation[0].symbols == (4, 5)


def test_load_dataset_attack_duplicates_kept(tmp_path):
    _write(tmp_path / "train", "t0.txt", "1 2 3")
    _write(tmp_path / "attack", "a0.txt", "9 9")
    _write(tmp_path / "attack", "a1.txt", "9 9")
    ds = load_dataset(tmp_path / "train", None, tmp_path / "attack")
    assert len(ds.attacks) == 2


def test_load_dataset_requires_attacks(tmp_path):
    _write(tmp_path / "train", "t0.txt", "1 2 3")
    (tmp_path / "attack").mkdir()
    with pytest.raises(ConfigurationError, match="no attack sequences"):
        load_dataset(tmp_path / "train", None, tmp_path / "attack")


def test_load_dataset_missing_dir(tmp_path):
    with pytest.raises(ConfigurationError, match="not a directory"):
        load_dataset(tmp_path / "nope", None, tmp_path / "nope2")


def test_load_traces_refuses_the_empty_path(tmp_path, monkeypatch):
    # Path("") is the current directory, which here holds a trace
    _write(tmp_path, "x.txt", "1 2 3")
    monkeypatch.chdir(tmp_path)
    assert len(load_traces(".")) == 1
    with pytest.raises(ConfigurationError, match="not a directory or a trace file: ''"):
        load_traces("")


@pytest.mark.parametrize("split", ["train", "validation", "attack"])
def test_load_dataset_refuses_an_empty_path_for_any_split(tmp_path, monkeypatch, split):
    # only None means "no validation split"; "" would be the current directory
    _write(tmp_path / "train", "t0.txt", "1 2 3")
    _write(tmp_path / "validation", "v0.txt", "4 5")
    _write(tmp_path / "attack", "a0.txt", "9")
    _write(tmp_path, "x.txt", "6 7")
    monkeypatch.chdir(tmp_path)
    dirs = {name: name for name in ("train", "validation", "attack")} | {split: ""}
    with pytest.raises(ConfigurationError, match="not a directory or a trace file: ''"):
        load_dataset(dirs["train"], dirs["validation"], dirs["attack"])


def test_load_traces_drops_empty_files_with_warning(tmp_path, caplog):
    _write(tmp_path / "d", "full.txt", "1 2")
    _write(tmp_path / "d", "empty.txt", "")
    with caplog.at_level("WARNING"):
        seqs = load_traces(tmp_path / "d")
    assert len(seqs) == 1
    assert "empty" in caplog.text


def test_load_traces_per_line(tmp_path):
    _write(tmp_path / "d", "multi.txt", "1 2\n\n3 4 5\n")
    seqs = load_traces(tmp_path / "d", one_trace_per="line")
    assert [s.symbols for s in seqs] == [(1, 2), (3, 4, 5)]
    assert seqs[0].source_id.endswith("multi.txt:1")
    assert seqs[1].source_id.endswith("multi.txt:3")


def test_load_traces_per_line_ends_lines_at_newline_only(tmp_path):
    # str.splitlines() would also end a line at U+2028 and at form feed
    (tmp_path / "t.txt").write_text("1 2\u20283 4\n5 6\f7\n", encoding="utf-8")
    seqs = load_traces(tmp_path / "t.txt", one_trace_per="line")
    assert [(Path(s.source_id).name, s.symbols) for s in seqs] == [("t.txt:1", (1, 2, 3, 4)), ("t.txt:2", (5, 6, 7))]


def test_load_traces_totals_match_disk(tmp_path):
    for i in range(6):
        _write(tmp_path / "d", f"f{i}.txt", f"{i} {i}")
    assert len(load_traces(tmp_path / "d")) == 6


def test_load_traces_names_undecodable_file(tmp_path):
    _write(tmp_path / "d", "ok.txt", "1 2")
    (tmp_path / "d" / ".DS_Store").write_bytes(b"\xff\xfe\x00junk")
    with pytest.raises(TraceParseError, match=r"\.DS_Store"):
        load_traces(tmp_path / "d")


@pytest.mark.parametrize("one_trace_per", ["file", "line"])
def test_load_traces_single_file(tmp_path, one_trace_per):
    _write(tmp_path, "bundle.txt", "1 2\n\n3 4 5\n")
    seqs = load_traces(tmp_path / "bundle.txt", one_trace_per=one_trace_per)
    expected = {"file": [(1, 2, 3, 4, 5)], "line": [(1, 2), (3, 4, 5)]}
    assert [s.symbols for s in seqs] == expected[one_trace_per]


def test_load_traces_drops_lone_empty_file_with_warning(tmp_path, caplog):
    _write(tmp_path, "empty.txt", "")
    with caplog.at_level("WARNING"):
        assert load_traces(tmp_path / "empty.txt") == []
    assert "empty" in caplog.text


def test_load_traces_checks_the_mode_before_the_path(tmp_path):
    with pytest.raises(ConfigurationError, match="one_trace_per must be 'file' or 'line', got 'bogus'"):
        load_traces(tmp_path / "missing", "bogus")


@pytest.mark.parametrize("one_trace_per", ["file", "line"])
def test_load_traces_names_a_token_beyond_the_int_digit_limit(tmp_path, one_trace_per):
    _write(tmp_path / "d", "a.txt", "1 2\n")
    _write(tmp_path / "d", "b.txt", "1 2\n3 " + "9" * 5000 + " 4\n")
    source = {"file": "b.txt", "line": "b.txt:2"}[one_trace_per]
    offset = {"file": 6, "line": 2}[one_trace_per]
    with pytest.raises(TraceParseError, match=rf"' at offset {offset} in \S*{re.escape(source)}: "):
        load_traces(tmp_path / "d", one_trace_per)


@pytest.mark.parametrize("one_trace_per", ["file", "line"])
def test_load_traces_names_each_file_that_holds_a_bad_token(tmp_path, one_trace_per):
    _write(tmp_path / "d", "a.txt", "1 x 2\n")
    _write(tmp_path / "d", "b.txt", "1 2\n2 2 x\n")
    with pytest.raises(TraceParseError, match=r"'x' at offset 2 in \S*a\.txt"):
        load_traces(tmp_path / "d", one_trace_per)
    _write(tmp_path / "d", "a.txt", "1 2\n")
    source = {"file": r"b\.txt: ", "line": r"b\.txt:2: "}[one_trace_per]
    offset = {"file": 8, "line": 4}[one_trace_per]
    with pytest.raises(TraceParseError, match=rf"'x' at offset {offset} in \S*{source}"):
        load_traces(tmp_path / "d", one_trace_per)


@pytest.mark.parametrize("one_trace_per", ["file", "line"])
def test_load_traces_echoes_at_most_200_characters_of_a_bad_token(tmp_path, one_trace_per):
    _write(tmp_path / "d", "big.txt", "1 2 " + "x" * 1_000_000 + "\n")
    with pytest.raises(TraceParseError) as raised:
        load_traces(tmp_path / "d", one_trace_per)
    message = str(raised.value)
    assert len(message) < 1_000
    assert "'" + "x" * 200 + "\u2026' at offset 4 in " in message
    assert "big.txt" in message


@settings(max_examples=150, deadline=None)
@given(st.lists(file_texts, min_size=1, max_size=4), st.sampled_from(["file", "line"]))
def test_load_traces_parses_each_file_as_parse_trace_does(texts, one_trace_per):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"f{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        expected = []
        try:
            for path in paths:
                text = traces.read_trace_text(path)
                if one_trace_per == "file":
                    expected += [seq for seq in [parse_trace(text, str(path))] if seq.symbols]
                else:
                    expected += [parse_trace(line, f"{path}:{lineno}")
                                 for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]
        except TraceParseError as error:
            with pytest.raises(TraceParseError) as raised:
                load_traces(tmp, one_trace_per)
            assert str(raised.value) == str(error)
        else:
            assert load_traces(tmp, one_trace_per) == expected


@pytest.mark.parametrize("one_trace_per", ["file", "line"])
def test_load_converts_each_distinct_token_once_per_load(tmp_path, monkeypatch, one_trace_per):
    converted = []
    monkeypatch.setattr(traces, "int", lambda token: converted.append(token) or int(token), raising=False)
    _write(tmp_path / "d", "a.txt", "300 7 300\n7 300\n")
    _write(tmp_path / "d", "b.txt", "7 7 301\n")
    for _ in range(2):
        load_traces(tmp_path / "d", one_trace_per)
        assert sorted(converted) == ["300", "301", "7"]  # once per load, not per occurrence
        converted.clear()
