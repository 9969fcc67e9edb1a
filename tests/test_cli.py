import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import random
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seqcover.detector
import seqcover.model
import seqcover.traces
from seqcover import METHODS, ConfigurationError, DetectorConfig, EnrichmentConfig, cli
from seqcover.cli import main


def _write(dirpath, name, text):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / name).write_text(text)


@pytest.fixture()
def worked_example(tmp_path):
    model = tmp_path / "model"
    _write(model, "s1.txt", "0 0 0 0 1 1 1 1 0 0 0 0 1 1 1 1")
    _write(model, "s2.txt", "0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1")
    traces = tmp_path / "traces"
    _write(traces, "s3.txt", "0 0 1 1 0 0 1 1 0 0 1 1 0 0 1 1")
    _write(traces, "s4.txt", "0 1 0 1 0 1 0 1 0 1 0 1 0 1 0 1")
    return model, traces


@pytest.fixture()
def synthetic_corpus(tmp_path):
    """Disjoint-alphabet corpus: validation traces are substrings of training,
    attacks share no symbols with either."""
    rng = random.Random(1234)
    base = [rng.randrange(3) for _ in range(80)]
    train = tmp_path / "train"
    _write(train, "t0.txt", " ".join(map(str, base)))
    _write(train, "t1.txt", " ".join(map(str, base[::-1])))
    val = tmp_path / "val"
    for i in range(6):
        chunk = base[5 * i: 5 * i + 14]
        _write(val, f"v{i}.txt", " ".join(map(str, chunk)))
    attack = tmp_path / "attack"
    for i in range(4):
        _write(attack / "catA", f"a{i}.txt", " ".join(str(rng.randrange(10, 13)) for _ in range(16)))
    return train, val, attack


def test_cover_worked_example(worked_example, capsys):
    model, traces = worked_example
    assert main(["cover", "--model-dir", str(model), "--trace", str(traces / "s3.txt")]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["covering_size"] == 4
    assert record["similarity"] == "13/16"
    assert record["similarity_decimal"] == "0.812500"
    assert record["segments"] == [[0, 4], [4, 8], [8, 12], [12, 16]]


def test_cover_s4_prints_eight_two_symbol_segments(worked_example, capsys):
    model, traces = worked_example
    assert main(["cover", "--model-dir", str(model), "--trace", str(traces / "s4.txt")]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["similarity"] == "9/16"
    assert record["segments"] == [[2 * i, 2 * i + 2] for i in range(8)]


def test_cover_trace_equal_to_model_file(worked_example, tmp_path, capsys):
    model, _ = worked_example
    trace = tmp_path / "copy.txt"
    trace.write_text("0 0 0 0 1 1 1 1 0 0 0 0 1 1 1 1")
    assert main(["cover", "--model-dir", str(model), "--trace", str(trace)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["covering_size"] == 1
    assert record["similarity"] == "1/1"


def test_cover_single_unseen_symbol(worked_example, tmp_path, capsys):
    model, _ = worked_example
    trace = tmp_path / "solo.txt"
    trace.write_text("400")
    assert main(["cover", "--model-dir", str(model), "--trace", str(trace)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["covering_size"] == 1
    assert record["similarity"] == "1/1"


def test_cover_writes_outputs(worked_example, tmp_path, capsys):
    model, traces = worked_example
    out = tmp_path / "coverout"
    assert main(["cover", "--model-dir", str(model), "--trace", str(traces / "s3.txt"),
                 "--out-dir", str(out)]) == 0
    stdout_record = json.loads(capsys.readouterr().out)
    file_record = json.loads((out / "covering.json").read_text())
    assert file_record == stdout_record
    assert json.loads((out / "manifest.json").read_text())["command"] == "cover"


def test_detect_single_file_per_line(worked_example, tmp_path, capsys):
    model, _ = worked_example
    bundle = tmp_path / "bundle.txt"
    bundle.write_text("0 0 0 1 1\n1 0 1 0\n")
    assert main(["detect", "--model-dir", str(model), "--traces", str(bundle),
                 "--one-trace-per", "line", "--sigma", "1.0"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [rec["verdict"] for rec in records] == ["normal", "anomaly"]
    assert records[0]["source_id"].endswith("bundle.txt:1")


def _detect_records(model, traces, one_trace_per):
    """``detect``'s records by trace number: the file name's stem, or the line number less one."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["detect", "--model-dir", str(model), "--traces", str(traces),
                     "--one-trace-per", one_trace_per]) == 0
    records = {}
    for record in map(json.loads, out.getvalue().splitlines()):
        name, _, line = record.pop("source_id").rsplit("/", 1)[-1].partition(":")
        records[int(line) - 1 if line else int(name.removesuffix(".txt"))] = record
    return records


_trace = st.lists(st.integers(0, 5), max_size=10)  # an empty trace is dropped as a file and as a line


@settings(max_examples=40, deadline=None)
@given(st.lists(_trace, min_size=1, max_size=5), st.lists(_trace, min_size=1, max_size=6))
def test_detect_scores_do_not_depend_on_how_the_traces_are_packaged(model, batch):
    assume(any(model) and any(batch))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, traces in (("model", model), ("batch", batch)):
            for i, trace in enumerate(traces):
                _write(root / name, f"{i:02d}.txt", " ".join(map(str, trace)))
            (root / f"{name}.txt").write_text("".join(" ".join(map(str, trace)) + "\n" for trace in traces))
        per_file = _detect_records(root / "model", root / "batch", "file")
        per_line = _detect_records(root / "model.txt", root / "batch.txt", "line")
    assert sorted(per_file) == [i for i, trace in enumerate(batch) if trace]
    assert per_line == per_file


def test_cover_reads_one_trace_per_line(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("1 2 3\n4 5 6\n")
    trace = tmp_path / "t.txt"
    trace.write_text("1 2\n")
    assert main(["cover", "--model-dir", str(model), "--trace", str(trace),
                 "--one-trace-per", "line"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["source_id"].endswith("t.txt:1")
    assert record["similarity"] == "1/1"


def test_detect_directory(worked_example, capsys):
    model, traces = worked_example
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces),
                 "--sigma", "0.97"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert len(records) == 2
    verdicts = {rec["source_id"].rsplit("/", 1)[-1]: rec["verdict"] for rec in records}
    assert verdicts["s3.txt"] == "anomaly"  # 13/16 < 0.97
    assert verdicts["s4.txt"] == "anomaly"
    assert "2 anomaly" in captured.err


def test_detect_sigma_one_only_exact_substrings(worked_example, tmp_path, capsys):
    model, _ = worked_example
    traces = tmp_path / "mix"
    _write(traces, "frag.txt", "0 0 0 1 1")
    _write(traces, "warp.txt", "1 0 1 0")
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces),
                 "--sigma", "1.0"]) == 0
    records = {json.loads(line)["source_id"].rsplit("/", 1)[-1]: json.loads(line)["verdict"]
               for line in capsys.readouterr().out.strip().splitlines()}
    assert records == {"frag.txt": "normal", "warp.txt": "anomaly"}


def test_detect_writes_outputs(worked_example, tmp_path, capsys):
    model, traces = worked_example
    out = tmp_path / "out"
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert (out / "scores.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "detect"
    assert manifest["args"]["sigma"] == "0.97"


def test_detect_missing_traces_dir(worked_example, capsys):
    model, _ = worked_example
    assert main(["detect", "--model-dir", str(model), "--traces", "/nonexistent/xyz"]) != 0
    assert "error:" in capsys.readouterr().err


def test_detect_reads_its_traces_before_building_the_model(worked_example, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        pytest.fail("an index was built before every input was checked")

    monkeypatch.setattr(seqcover.model, "GeneralizedSuffixIndex", refuse)
    model, _ = worked_example
    missing = tmp_path / "missing"
    assert main(["detect", "--model-dir", str(model), "--traces", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err


def _run_enrich(train, val, attack, out, extra=()):
    return main([
        "enrich",
        "--train-dir", str(train), "--validation-dir", str(val), "--attack-dir", str(attack),
        "--batch-size", "2", "--stop-fraction", "0.8", "--seed", "0", "--bins", "10",
        "--out-dir", str(out), *extra,
    ])


def test_enrich_outputs(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out = tmp_path / "run1"
    assert _run_enrich(train, val, attack, out) == 0
    assert (out / "manifest.json").exists()
    trace_rows = (out / "trace.csv").read_text().strip().splitlines()
    header = trace_rows[0].split(",")
    assert header == ["iteration", "train_size", "train_fraction", "auc",
                      "auc_excluding_exact_substring_attacks", "elapsed_seconds"]
    first = trace_rows[1].split(",")
    assert first[0] == "0" and first[1] == "2"
    assert first[3] == "1.000000"  # disjoint alphabets separate immediately
    iterations = len(trace_rows) - 1
    for i in range(iterations):
        assert (out / f"roc_{i:04d}.csv").exists()
        assert (out / f"hist_{i:04d}.csv").exists()
    hist = (out / "hist_0000.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lower_edge,normal_count,attack_count"
    assert len(hist) == 11


def _without_elapsed(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.strip().splitlines()]


def test_enrich_deterministic_outputs(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run_enrich(train, val, attack, out1) == 0
    assert _run_enrich(train, val, attack, out2) == 0
    for name in sorted(p.name for p in out1.glob("*.csv")):
        a = (out1 / name).read_text()
        b = (out2 / name).read_text()
        if name == "trace.csv":
            assert _without_elapsed(a) == _without_elapsed(b)  # wall-clock column aside
        else:
            assert a == b


def test_enrich_random_init(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out = tmp_path / "rand"
    assert _run_enrich(train, val, attack, out,
                       extra=("--init", "random", "--init-fraction", "0.3")) == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[1] == str(round(0.3 * 8))


def test_compare_all_methods(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out = tmp_path / "cmp"
    assert main([
        "compare",
        "--train-dir", str(train), "--validation-dir", str(val), "--attack-dir", str(attack),
        "--methods", "SC4ID,LEV,LCSq,LCSt", "--batch-size", "3", "--stop-iterations", "2",
        "--seed", "7", "--out-dir", str(out),
    ]) == 0
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration,train_size,train_fraction,auc_SC4ID,auc_LEV,auc_LCSq,auc_LCSt"
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[3:] == ["1.000000"] * 4  # trivially separable for every method
    times = (out / "times.csv").read_text().strip().splitlines()
    assert times[0] == "method,iterations,total_elapsed_seconds,mean_elapsed_seconds,aborted"
    assert len(times) == 5


def test_compare_single_method_matches_enrich_trace(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out_cmp = tmp_path / "c"
    out_enr = tmp_path / "e"
    common = ["--train-dir", str(train), "--validation-dir", str(val),
              "--attack-dir", str(attack), "--batch-size", "2",
              "--stop-fraction", "0.8", "--seed", "0"]
    assert main(["compare", *common, "--methods", "SC4ID", "--out-dir", str(out_cmp)]) == 0
    assert main(["enrich", *common, "--out-dir", str(out_enr)]) == 0
    cmp_rows = [row.split(",") for row in (out_cmp / "compare.csv").read_text().strip().splitlines()[1:]]
    enr_rows = [row.split(",") for row in (out_enr / "trace.csv").read_text().strip().splitlines()[1:]]
    assert [(r[0], r[1], r[3]) for r in cmp_rows] == [(r[0], r[1], r[3]) for r in enr_rows]


def test_manifest_reproduces_run(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    out1 = tmp_path / "m1"
    assert _run_enrich(train, val, attack, out1) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    args = manifest["args"]
    out2 = tmp_path / "m2"
    rerun = [
        manifest["command"],
        "--train-dir", args["train_dir"], "--validation-dir", args["validation_dir"],
        "--attack-dir", args["attack_dir"], "--batch-size", str(args["batch_size"]),
        "--stop-fraction", str(args["stop_fraction"]), "--seed", str(args["seed"]),
        "--bins", str(args["bins"]),
        "--one-trace-per", args["one_trace_per"], "--out-dir", str(out2),
    ]
    assert main(rerun) == 0
    for name in sorted(p.name for p in out1.glob("roc_*.csv")):
        assert (out1 / name).read_text() == (out2 / name).read_text()


@pytest.fixture()
def seeded_corpus(tmp_path):
    """Random traces over four symbols, so coverings and AUCs vary by trace and method."""
    rng = random.Random(2024)
    dirs = []
    for name, count in (("train", 4), ("val", 8), ("attack", 5)):
        for i in range(count):
            symbols = [rng.randrange(4) for _ in range(rng.randint(3, 25))]
            _write(tmp_path / name, f"{name}{i}.txt", " ".join(map(str, symbols)))
        dirs.append(tmp_path / name)
    return dirs


def test_cover_prints_each_trace_as_detect_scores_it(seeded_corpus, capsys):
    train, val, attack = seeded_corpus
    keys = ("source_id", "segments", "covering_size", "similarity")
    for traces in (val, attack):
        assert main(["detect", "--model-dir", str(train), "--traces", str(traces)]) == 0
        detected = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(detected) == len(list(traces.iterdir()))
        for record in detected:
            assert main(["cover", "--model-dir", str(train), "--trace", record["source_id"]]) == 0
            covered = json.loads(capsys.readouterr().out)
            assert [covered[key] for key in keys] == [record[key] for key in keys]


def test_compare_gives_each_method_the_column_it_gets_alone(seeded_corpus, tmp_path, capsys):
    train, val, attack = seeded_corpus
    common = ["--train-dir", str(train), "--validation-dir", str(val), "--attack-dir", str(attack),
              "--batch-size", "2", "--stop-iterations", "4", "--seed", "3"]

    def columns(methods):
        out = tmp_path / methods.replace(",", "-")
        assert main(["compare", *common, "--methods", methods, "--out-dir", str(out)]) == 0
        with (out / "compare.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        return {key: [row[key] for row in rows] for key in rows[0]}

    together = columns("SC4ID,LEV,LCSq,LCSt")
    assert len({tuple(together[f"auc_{method}"]) for method in METHODS}) > 1  # the methods disagree somewhere
    for method in METHODS:
        alone = columns(method)
        for key in ("iteration", "train_size", f"auc_{method}"):
            assert together[key] == alone[key]


def test_detect_gives_the_histogram_and_roc_of_enrich_iteration_0(seeded_corpus, tmp_path, capsys):
    train, val, attack = seeded_corpus
    # load_dataset drops duplicate contents and detect does not, so the two agree only without them
    contents = [path.read_text() for split in seeded_corpus for path in split.iterdir()]
    assert len(set(contents)) == len(contents)
    bins = 7
    out = tmp_path / "enrich"
    assert main(["enrich", "--train-dir", str(train), "--validation-dir", str(val),
                 "--attack-dir", str(attack), "--stop-iterations", "1", "--bins", str(bins),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()

    def similarities(traces):
        assert main(["detect", "--model-dir", str(train), "--traces", str(traces)]) == 0
        return [Fraction(json.loads(line)["similarity"]) for line in capsys.readouterr().out.splitlines()]

    normal, attacks = similarities(val), similarities(attack)

    def bin_counts(values):
        counts = [0] * bins
        for value in values:
            counts[min(math.floor(value * bins), bins - 1)] += 1
        return counts

    with (out / "hist_0000.csv").open(newline="") as handle:
        hist = [(int(row["normal_count"]), int(row["attack_count"])) for row in csv.DictReader(handle)]
    assert hist == list(zip(bin_counts(normal), bin_counts(attacks)))

    def rate(values, threshold):
        return sum(value <= threshold for value in values) / len(values)

    # one point per distinct anomaly score 1 - similarity, swept from most to least anomalous
    expected = [(0.0, 0.0)] + [(rate(normal, t), rate(attacks, t)) for t in sorted(set(normal + attacks))]
    with (out / "roc_0000.csv").open(newline="") as handle:
        roc = [(float(row["false_positive_rate"]), float(row["true_positive_rate"]))
               for row in csv.DictReader(handle)]
    assert len(roc) > 3
    assert roc == [pytest.approx(point, rel=1e-9) for point in expected]


def test_detect_frees_each_trace_once_it_is_scored(worked_example, monkeypatch, capsys):
    model, traces = worked_example
    classify = seqcover.detector.classify
    scored = []

    def classify_after_the_last_is_freed(model, config, trace):
        assert [ref() for ref in scored] == [None] * len(scored)
        scored.append(weakref.ref(trace))
        return classify(model, config, trace)

    monkeypatch.setattr(seqcover.detector, "classify", classify_after_the_last_is_freed)
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(scored) == 2


# Refusals: what each command refuses, and what it must not have done by then.
# A row is (command, flags, stage, fragment). The argv is the command, BASE's
# flags for it, under which it runs, then the row's flags; argparse keeps the
# last value of a repeated flag, so the row's flags override BASE. In flags and
# fragment, {name} is the path tmp_path/name that refusal_inputs lays out;
# {missing} and {out} do not exist; in flags, "" is the empty argument. A
# stage names what the refusal must precede: SETTINGS, any trace read;
# INPUTS, any index built. Every row exits 2 (from main or from argparse),
# prints nothing on stdout, shows the fragment on stderr, and writes
# nothing, --out-dir included.
SETTINGS, INPUTS = "settings", "inputs"

_PROTOCOL_BASE = "--train-dir {train} --attack-dir {attack} --init random --out-dir {out}"
BASE = {
    "cover": "--model-dir {model} --trace {traces}/s3.txt",
    "detect": "--model-dir {model} --traces {traces}",
    "enrich": _PROTOCOL_BASE,
    "compare": _PROTOCOL_BASE,
}

_NOT_FOUND = "error: not a directory or a trace file: "
_NOT_A_DIRECTORY = "error: argument --out-dir: {a_file} is not a directory"
_UNDER_A_FILE = "error: argument --out-dir: cannot create {a_file}/sub: {a_file} is not a directory"


def _empty(flag):
    """The row that refuses an empty path, which would name the current directory."""
    return f'{flag} ""', SETTINGS, f"error: argument {flag}: must not be empty"


_PROTOCOL_REFUSALS = [
    ("--init half", SETTINGS, "argument --init: invalid choice: 'half'"),
    ("--init fixed --init-fraction 5", SETTINGS, "error: --init-fraction applies only to --init random"),
    ("--init-fraction 1.5", SETTINGS, "error: --init-fraction must lie in (0, 1), got 1.5"),
    ("--init-fraction nan", SETTINGS, "error: --init-fraction must be a finite number, got 'nan'"),
    ("--init-fraction half", SETTINGS, "error: --init-fraction must be a finite number, got 'half'"),
    # as typed: read as a float, 1e400 would overflow to inf and be refused as not finite
    ("--init-fraction 1e400", SETTINGS, "error: --init-fraction must lie in (0, 1), got 1e400"),
    ("--batch-size 0", SETTINGS, "error: --batch-size must be >= 1, got 0"),
    ("--batch-size 1.5", SETTINGS, "argument --batch-size: invalid int value: '1.5'"),
    # the line ends at the value as typed, not at 0.0
    ("--stop-fraction 0", SETTINGS, "error: --stop-fraction must lie in (0, 1], got 0\n"),
    ("--stop-fraction nan", SETTINGS, "error: --stop-fraction must be a finite number, got 'nan'"),
    ("--stop-iterations 0", SETTINGS, "error: --stop-iterations must be >= 1, got 0"),
    ("--stop-fraction 0.5 --stop-iterations 2", SETTINGS,
     "error: --stop-fraction and --stop-iterations are both set; at most one stop rule may be set"),
    ("--seed x", SETTINGS, "argument --seed: invalid int value: 'x'"),
    ("--one-trace-per word", SETTINGS, "argument --one-trace-per: invalid choice: 'word'"),
    ("--train-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("--train-dir {empty}", INPUTS, "error: no training sequences loaded from {empty}"),
    ("--train-dir {signed}", INPUTS, "error: bad token '-2' at offset 2 in {signed}: not ASCII decimal digits"),
    ("--train-dir {one}", INPUTS, "error: random initialization needs at least two normal sequences"),
    ("--validation-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("--validation-dir {empty}", INPUTS, "error: no validation sequences loaded from {empty}"),
    ("--validation-dir {dup_val}", INPUTS,
     "error: all 1 validation sequences loaded from {dup_val} duplicate training sequences"),
    ("--attack-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("--attack-dir {empty}", INPUTS, "error: no attack sequences loaded from {empty}"),
    ("--attack-dir {mix}", INPUTS, "error: {mix}/.DS_Store is not a UTF-8 text trace"),
    ("--init fixed", INPUTS, "error: no normal sequences to score: pass --validation-dir or use --init random"),
    *(_empty(flag) for flag in ("--train-dir", "--validation-dir", "--attack-dir", "--out-dir")),
    ("--out-dir {a_file}", SETTINGS, _NOT_A_DIRECTORY),
    ("--out-dir {a_file}/sub", SETTINGS, _UNDER_A_FILE),
]

REFUSALS = [
    ("cover", "--one-trace-per word", SETTINGS, "argument --one-trace-per: invalid choice: 'word'"),
    ("cover", "--model-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("cover", "--model-dir {empty}", INPUTS, "error: no model sequences loaded from {empty}"),
    ("cover", "--trace {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("cover", "--trace {bad}", INPUTS, "error: {bad} is not a UTF-8 text trace"),
    ("cover", "--trace {traces}", INPUTS, "error: cover needs exactly one non-empty trace, {traces} holds 2"),
    # two lines are two traces, never one covered across the line break
    ("cover", "--trace {two_lines} --one-trace-per line", INPUTS,
     "error: cover needs exactly one non-empty trace, {two_lines} holds 2"),
    ("cover", "--trace {blank} --one-trace-per line", INPUTS,
     "error: cover needs exactly one non-empty trace, {blank} holds 0"),
    # both paths bad: the trace is checked before the model is read
    ("cover", "--model-dir {missing} --trace {two_lines} --one-trace-per line", INPUTS,
     "error: cover needs exactly one non-empty trace, {two_lines} holds 2"),
    ("cover", "--out-dir {a_file}", SETTINGS, _NOT_A_DIRECTORY),
    ("cover", "--out-dir {a_file}/sub", SETTINGS, _UNDER_A_FILE),
    ("cover", "--out-dir {dangling}", SETTINGS, "error: argument --out-dir: {dangling} is not a directory"),
    *(("cover", *_empty(flag)) for flag in ("--model-dir", "--trace", "--out-dir")),
    ("detect", "--sigma nan", SETTINGS, "error: --sigma must be a finite number, got 'nan'"),
    ("detect", "--sigma 2", SETTINGS, "error: --sigma must lie in [0, 1], got 2"),
    # as typed, not as the rational it reads as (3/2, or a 401-digit integer)
    ("detect", "--sigma 1.5", SETTINGS, "error: --sigma must lie in [0, 1], got 1.5"),
    ("detect", "--sigma 1e400", SETTINGS, "error: --sigma must lie in [0, 1], got 1e400"),
    ("detect", "--one-trace-per word", SETTINGS, "argument --one-trace-per: invalid choice: 'word'"),
    ("detect", "--model-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("detect", "--model-dir {empty}", INPUTS, "error: no model sequences loaded from {empty}"),
    ("detect", "--traces {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("detect", "--traces {empty}", INPUTS, "error: no traces loaded from {empty}"),
    ("detect", "--traces {mix}", INPUTS, "error: {mix}/.DS_Store is not a UTF-8 text trace"),
    ("detect", "--out-dir {a_file}", SETTINGS, _NOT_A_DIRECTORY),
    ("detect", "--out-dir {a_file}/sub", SETTINGS, _UNDER_A_FILE),
    *(("detect", *_empty(flag)) for flag in ("--model-dir", "--traces", "--out-dir")),
    *((command, *row) for command in ("enrich", "compare") for row in _PROTOCOL_REFUSALS),
    ("enrich", "--bins 0", SETTINGS, f"argument --bins: must lie in [1, {cli.MAX_BINS}], got 0"),
    ("enrich", "--bins 1000000000", SETTINGS, f"argument --bins: must lie in [1, {cli.MAX_BINS}], got 1000000000"),
    # compare writes no histogram, so a bin count would be accepted and ignored
    ("compare", "--bins 3", SETTINGS, "error: unrecognized arguments: --bins 3"),
    ("compare", "--methods SC4ID,NOPE", SETTINGS,
     "error: unknown method 'NOPE', expected any of SC4ID, LEV, LCSq, LCSt"),
    ("compare", "--methods ,", SETTINGS, "error: no methods requested"),
    ("compare", "--per-method-budget-seconds nan", SETTINGS,
     "error: --per-method-budget-seconds must be a finite number, got 'nan'"),
    # a budget that never expires; read as a float, 1e400 overflows to inf
    ("compare", "--per-method-budget-seconds inf", SETTINGS,
     "error: --per-method-budget-seconds must be a finite number, got 'inf'"),
    ("compare", "--per-method-budget-seconds 1e400", SETTINGS,
     "error: --per-method-budget-seconds must be a finite number, got '1e400'"),
    ("compare", "--per-method-budget-seconds x", SETTINGS,
     "error: --per-method-budget-seconds must be a finite number, got 'x'"),
    # the line ends at the value as typed, not at -1.0
    ("compare", "--per-method-budget-seconds -1", SETTINGS, "error: --per-method-budget-seconds must be >= 0, got -1\n"),
]


class _Under(dict):
    """Formats {name} as the path root/name."""

    def __init__(self, root):
        super().__init__()
        self.root = root

    def __missing__(self, name):
        return str(self.root / name)


@pytest.fixture()
def refusal_inputs(tmp_path, worked_example, synthetic_corpus):
    """The paths REFUSALS names, beside the worked example and the synthetic corpus."""
    train, _, _ = synthetic_corpus
    (tmp_path / "empty").mkdir()
    (tmp_path / "a_file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    (tmp_path / "two_lines").write_text("1 2\n5 6\n")
    (tmp_path / "blank").write_text("\n")
    (tmp_path / "bad").write_bytes(b"\xff\xfe\x00junk")
    _write(tmp_path / "mix", "frag.txt", "0 0 0 1 1")
    (tmp_path / "mix" / ".DS_Store").write_bytes(b"\xff\xfe\x00junk")
    (tmp_path / "signed").write_text("1 -2 3")
    _write(tmp_path / "one", "t0.txt", "1 2 3 4")
    _write(tmp_path / "dup_val", "v0.txt", (train / "t0.txt").read_text())
    return _Under(tmp_path)


def _argv(command, flags, paths):
    return ["" if token == '""' else token.format_map(paths)
            for token in f"{command} {BASE[command]} {flags}".split()]


def _refusal_id(command, flags, *_):
    return "/".join([command, *(token.removeprefix("--").replace("{", "").replace("}", "")
                                for token in flags.split())])


@pytest.mark.parametrize("command", BASE)
def test_refusal_base_runs(refusal_inputs, capsys, command):
    # so each row's own flags are what is refused
    assert main(_argv(command, "", refusal_inputs)) == 0


def test_every_flag_that_takes_a_value_has_a_refusal():
    (commands,) = (action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        flags = {flag for action in parser._actions if action.nargs != 0 for flag in action.option_strings}
        refused = {token for row in REFUSALS if row[0] == command for token in row[1].split()}
        assert flags <= refused, f"{command}: no refusal row for {sorted(flags - refused)}"


@pytest.mark.parametrize("command, flags, stage, fragment", REFUSALS,
                         ids=[_refusal_id(*row) for row in REFUSALS])
def test_refusal(refusal_inputs, tmp_path, monkeypatch, capsys, command, flags, stage, fragment):
    def forbid(what):
        def fail(*args, **kwargs):
            pytest.fail(f"{what} before the refusal ({stage})")
        return fail

    monkeypatch.setattr(seqcover.model, "GeneralizedSuffixIndex", forbid("an index was built"))
    if stage == SETTINGS:
        for module, name in ((cli, "load_traces"), (cli, "load_dataset"), (seqcover.traces, "load_traces")):
            monkeypatch.setattr(module, name, forbid("a trace was read"))
    before = sorted(tmp_path.rglob("*"))
    try:
        code = main(_argv(command, flags, refusal_inputs))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert fragment.format_map(refusal_inputs) in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_a_refusal_prints_the_value_as_typed(refusal_inputs, capsys):
    # outside REFUSALS, whose fragments are format_map templates: braces in a
    # value reach stderr as typed, never read as a template
    assert main(_argv("detect", "", refusal_inputs) + ["--sigma", "{0}"]) == 2
    assert capsys.readouterr() == ("", "error: --sigma must be a finite number, got '{0}'\n")


# Values of the types argparse hands each config field from the flag that sets
# it, good ones first. Every combination is tried, so every rule is reached.
_CLI_VALUES = {
    DetectorConfig: {"sigma": ["0.5", "nan", "inf", "x", "{0}", "2", "-1", "1e400"]},
    EnrichmentConfig: {
        "init_fraction": [None, "0.5", "0", "1", "1.5", "nan", "inf", "1e400", "half"],
        "batch_size": [1, 0, -1],
        "stop_train_fraction": [None, "0.5", "0", "1.5", "nan"],
        "stop_max_iterations": [None, 2, 0, -1],
        "rng_seed": [0, -1],
        "time_budget_seconds": [None, "1", "-1", "nan", "inf", "1e400", "x"],
    },
}


def test_every_settings_refusal_names_fields_that_map_to_flags():
    refused = set()
    for config, values in _CLI_VALUES.items():
        assert list(values) == [field.name for field in dataclasses.fields(config)]
        for combination in itertools.product(*values.values()):
            try:
                config(**dict(zip(values, combination)))
            except ConfigurationError as exc:
                assert exc.fields, f"{exc.rule!r} names no field"
                assert set(exc.fields) <= set(cli._FLAG_OF_SETTING), f"{exc.fields} has no flag"
                refused.add(exc.fields)
    assert refused == {(field,) for field in cli._FLAG_OF_SETTING} | {("stop_train_fraction", "stop_max_iterations")}
