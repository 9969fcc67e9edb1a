import argparse
import json
import random

import pytest

import seqcover.model
import seqcover.traces
from seqcover import cli
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



# Refusals: what each command refuses, and what it must not have done by then.
# A row is (command, flags, stage, fragment). The argv is the command, BASE's
# flags for it, under which it runs, then the row's flags; argparse keeps the
# last value of a repeated flag, so the row's flags override BASE. In flags and
# fragment, {name} is the path tmp_path/name that refusal_inputs lays out;
# {missing} and {out} do not exist. A stage names what the refusal must precede:
# SETTINGS, any trace read; INPUTS, any index built. Every row exits 2 (from
# main or from argparse), prints nothing on stdout, shows the fragment on
# stderr, and writes nothing, --out-dir included.
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
_PROTOCOL_REFUSALS = [
    ("--init half", SETTINGS, "argument --init: invalid choice: 'half'"),
    ("--init fixed --init-fraction 5", SETTINGS, "error: --init-fraction applies only to --init random"),
    ("--init-fraction 1.5", SETTINGS, "error: init_fraction must lie in (0, 1), got 1.5"),
    ("--init-fraction nan", SETTINGS, "error: init_fraction must be a finite number, got nan"),
    ("--init-fraction half", SETTINGS, "argument --init-fraction: invalid float value: 'half'"),
    ("--batch-size 0", SETTINGS, "error: batch_size must be >= 1, got 0"),
    ("--batch-size 1.5", SETTINGS, "argument --batch-size: invalid int value: '1.5'"),
    ("--stop-fraction 0", SETTINGS, "error: stop_train_fraction must lie in (0, 1], got 0.0"),
    ("--stop-fraction nan", SETTINGS, "error: stop_train_fraction must be a finite number, got nan"),
    ("--stop-iterations 0", SETTINGS, "error: stop_max_iterations must be >= 1, got 0"),
    ("--stop-fraction 0.5 --stop-iterations 2", SETTINGS, "error: at most one stop rule may be set"),
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
    ("detect", "--sigma nan", SETTINGS, "error: sigma must be a finite number, got 'nan'"),
    ("detect", "--sigma 2", SETTINGS, "error: sigma must lie in [0, 1], got 2"),
    ("detect", "--one-trace-per word", SETTINGS, "argument --one-trace-per: invalid choice: 'word'"),
    ("detect", "--model-dir {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("detect", "--model-dir {empty}", INPUTS, "error: no model sequences loaded from {empty}"),
    ("detect", "--traces {missing}", INPUTS, _NOT_FOUND + "{missing}"),
    ("detect", "--traces {empty}", INPUTS, "error: no traces loaded from {empty}"),
    ("detect", "--traces {mix}", INPUTS, "error: {mix}/.DS_Store is not a UTF-8 text trace"),
    ("detect", "--out-dir {a_file}", SETTINGS, _NOT_A_DIRECTORY),
    ("detect", "--out-dir {a_file}/sub", SETTINGS, _UNDER_A_FILE),
    *((command, *row) for command in ("enrich", "compare") for row in _PROTOCOL_REFUSALS),
    ("enrich", "--bins 0", SETTINGS, f"argument --bins: must lie in [1, {cli.MAX_BINS}], got 0"),
    ("enrich", "--bins 1000000000", SETTINGS, f"argument --bins: must lie in [1, {cli.MAX_BINS}], got 1000000000"),
    # compare writes no histogram, so a bin count would be accepted and ignored
    ("compare", "--bins 3", SETTINGS, "error: unrecognized arguments: --bins 3"),
    ("compare", "--methods SC4ID,NOPE", SETTINGS,
     "error: unknown method 'NOPE', expected any of SC4ID, LEV, LCSq, LCSt"),
    ("compare", "--methods ,", SETTINGS, "error: no methods requested"),
    ("compare", "--per-method-budget-seconds nan", SETTINGS, "error: time_budget_seconds must be >= 0, got nan"),
    ("compare", "--per-method-budget-seconds -1", SETTINGS, "error: time_budget_seconds must be >= 0, got -1.0"),
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
    return [token.format_map(paths) for token in f"{command} {BASE[command]} {flags}".split()]


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
