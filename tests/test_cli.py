import json
import random

import pytest

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


def test_cover_variants_print_identical_segments(worked_example, capsys):
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


@pytest.mark.parametrize("text", ["1 2\n5 6\n", "\n"], ids=["two-lines", "blank"])
def test_cover_needs_exactly_one_trace(tmp_path, capsys, text):
    # two lines are two traces, never one covered across the line break;
    # a blank file holds none
    model = tmp_path / "model.txt"
    model.write_text("1 2 3\n4 5 6\n")
    trace = tmp_path / "t2.txt"
    trace.write_text(text)
    assert main(["cover", "--model-dir", str(model), "--trace", str(trace),
                 "--one-trace-per", "line"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exactly one" in captured.err and str(trace) in captured.err


@pytest.fixture()
def no_index(monkeypatch):
    """Fail the test if any index is built."""
    import seqcover.model as model

    def refuse(*args):
        pytest.fail("an index was built before every input was checked")

    monkeypatch.setattr(model, "GeneralizedSuffixIndex", refuse)


def test_cover_checks_the_trace_before_building_the_model(tmp_path, capsys, no_index):
    trace = tmp_path / "t2.txt"
    trace.write_text("1 2\n5 6\n")
    assert main(["cover", "--model-dir", str(tmp_path / "missing"), "--trace", str(trace),
                 "--one-trace-per", "line"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_detect_reads_its_traces_before_building_the_model(worked_example, tmp_path, capsys, no_index):
    model, _ = worked_example
    missing = tmp_path / "missing"
    assert main(["detect", "--model-dir", str(model), "--traces", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err


@pytest.mark.parametrize("command", ["detect", "cover"])
def test_out_dir_is_opened_before_building_the_model(worked_example, tmp_path, capsys, no_index, command):
    model, traces = worked_example
    out = tmp_path / "a_file"
    out.write_text("")
    target = ["--traces", str(traces)] if command == "detect" else ["--trace", str(traces / "s3.txt")]
    assert main([command, "--model-dir", str(model), *target, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err


def test_cover_bad_model_dir_fails(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("1")
    assert main(["cover", "--model-dir", str(tmp_path / "missing"), "--trace", str(trace)]) != 0
    assert "error:" in capsys.readouterr().err


def test_cover_names_undecodable_trace_file(worked_example, tmp_path, capsys):
    model, _ = worked_example
    trace = tmp_path / "bad.txt"
    trace.write_bytes(b"\xff\xfe\x00junk")
    assert main(["cover", "--model-dir", str(model), "--trace", str(trace)]) == 2
    assert str(trace) in capsys.readouterr().err


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


def test_detect_missing_traces_dir(worked_example, capsys):
    model, _ = worked_example
    assert main(["detect", "--model-dir", str(model), "--traces", "/nonexistent/xyz"]) != 0
    assert "error:" in capsys.readouterr().err


def test_detect_names_undecodable_trace_file(worked_example, tmp_path, capsys):
    model, _ = worked_example
    traces = tmp_path / "mix"
    _write(traces, "frag.txt", "0 0 0 1 1")
    (traces / ".DS_Store").write_bytes(b"\xff\xfe\x00junk")
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces)]) == 2
    assert str(traces / ".DS_Store") in capsys.readouterr().err


def test_detect_names_sigma_without_finite_rational(worked_example, capsys):
    model, traces = worked_example
    assert main(["detect", "--model-dir", str(model), "--traces", str(traces),
                 "--sigma", "nan"]) == 2
    assert "error: sigma must be a finite number, got 'nan'" in capsys.readouterr().err


def test_detect_checks_sigma_before_reading_traces(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["detect", "--model-dir", missing, "--traces", missing, "--sigma", "2"]) == 2
    assert "error: sigma must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enrich", "compare"])
def test_protocol_checks_settings_before_reading_traces(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    assert main([command, "--train-dir", str(missing / "train"), "--validation-dir", str(missing / "val"),
                 "--attack-dir", str(missing / "attack"), "--batch-size", "0", "--out-dir", str(out)]) == 2
    assert "error: batch_size must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


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


def test_compare_rejects_unknown_method(synthetic_corpus, tmp_path, capsys):
    train, val, attack = synthetic_corpus
    assert main([
        "compare", "--train-dir", str(train), "--validation-dir", str(val),
        "--attack-dir", str(attack), "--methods", "SC4ID,NOPE",
        "--out-dir", str(tmp_path / "x"),
    ]) != 0
    assert "unknown method" in capsys.readouterr().err


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


def _protocol_argv(command, corpus, out, *extra):
    train, val, attack = corpus
    return [command, "--train-dir", str(train), "--validation-dir", str(val),
            "--attack-dir", str(attack), "--stop-iterations", "1", "--out-dir", str(out), *extra]


def test_enrich_rejects_bins_below_one_before_writing(synthetic_corpus, tmp_path, capsys):
    out = tmp_path / "bins0"
    with pytest.raises(SystemExit) as exit_info:
        main(_protocol_argv("enrich", synthetic_corpus, out, "--bins", "0"))
    assert exit_info.value.code == 2
    assert not out.exists()


def test_enrich_refuses_bins_above_the_limit_before_reading_traces(tmp_path, capsys):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["enrich", "--train-dir", str(missing / "train"), "--attack-dir", str(missing / "attack"),
              "--bins", "1000000000", "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert f"--bins: must lie in [1, {cli.MAX_BINS}]" in capsys.readouterr().err
    assert not out.exists()


def test_enrich_refuses_a_zero_stop_fraction_before_reading_traces(tmp_path, capsys):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    assert main(["enrich", "--train-dir", str(missing / "train"), "--attack-dir", str(missing / "attack"),
                 "--stop-fraction", "0", "--out-dir", str(out)]) == 2
    assert "error: stop_train_fraction must lie in (0, 1], got 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_nan_budget_before_writing(synthetic_corpus, tmp_path, capsys):
    out = tmp_path / "nanbudget"
    assert main(_protocol_argv("compare", synthetic_corpus, out,
                               "--per-method-budget-seconds", "nan")) == 2
    assert "time_budget_seconds" in capsys.readouterr().err
    assert not out.exists()


def test_compare_has_no_bins_flag(synthetic_corpus, tmp_path, capsys):
    # compare writes no histogram, so a bin count would be accepted and ignored
    out = tmp_path / "cmpbins"
    with pytest.raises(SystemExit) as exit_info:
        main(_protocol_argv("compare", synthetic_corpus, out, "--bins", "3"))
    assert exit_info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["enrich", "compare"])
def test_fixed_init_without_validation_dir_fails_before_writing(tmp_path, capsys, command):
    train = tmp_path / "train"
    _write(train, "t0.txt", "1 2 3 4")
    _write(train, "t1.txt", "2 3 4 5")
    attack = tmp_path / "attack"
    _write(attack, "a0.txt", "9 9 9")
    out = tmp_path / "no_pool"
    assert main([command, "--train-dir", str(train), "--attack-dir", str(attack),
                 "--out-dir", str(out)]) == 2
    assert "no normal sequences to score" in capsys.readouterr().err
    assert not out.exists()


def test_enrich_rejects_random_init_on_one_normal_before_writing(tmp_path, capsys):
    train = tmp_path / "train"
    _write(train, "t0.txt", "1 2 3 4")
    attack = tmp_path / "attack"
    _write(attack, "a0.txt", "9 9 9")
    out = tmp_path / "one_normal"
    assert main(["enrich", "--train-dir", str(train), "--attack-dir", str(attack),
                 "--init", "random", "--out-dir", str(out)]) == 2
    assert "at least two normal sequences" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["enrich", "compare"])
def test_init_fraction_rejected_under_fixed_init_before_writing(synthetic_corpus, tmp_path, capsys, command):
    out = tmp_path / "fixed_fraction"
    assert main(_protocol_argv(command, synthetic_corpus, out, "--init", "fixed", "--init-fraction", "5")) == 2
    assert "--init-fraction applies only to --init random" in capsys.readouterr().err
    assert not out.exists()


def test_enrich_names_validation_that_only_duplicates_training(tmp_path, capsys):
    _write(tmp_path / "train", "t0.txt", "1 2 3 4")
    _write(tmp_path / "val", "v0.txt", "1 2 3 4")
    _write(tmp_path / "attack", "a0.txt", "9 9 9")
    out = tmp_path / "dup_val"
    assert main(["enrich", "--train-dir", str(tmp_path / "train"), "--validation-dir", str(tmp_path / "val"),
                 "--attack-dir", str(tmp_path / "attack"), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "all 1 validation sequences loaded from" in err
    assert "duplicate training sequences" in err
    assert not out.exists()
