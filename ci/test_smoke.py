"""Self-tests for ci/smoke.py's checks, on canned bench output; no bench runs.

The canned outputs below are literal text, abridged from real
``bench/run.py`` output to the lines the checks read. They are not derived
from ``smoke.RUNS``, so loosening a check or dropping a pin there makes a
test here fail until it is edited too.
"""

import re
from pathlib import Path

import pytest

import smoke

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# run name -> (workflow step, the arguments it passes to bench/run.py)
CALLS = {
    "compare seed 1": ("pinned", "--workload compare --seed 1 --trace 0"),
    "compare seed 2": ("pinned", "--workload compare --seed 2 --trace 0"),
    "compare seed 7": ("pinned", "--workload compare --seed 7 --trace 0"),
    "enrich seed 1": ("pinned", "--workload enrich --seed 1 --trace 0"),
    "enrich seed 2": ("pinned", "--workload enrich --seed 2 --trace 0"),
    "compare seed 1 traced": ("compare-traced", "--workload compare --seed 1 --trace 1"),
    "enrich seed 1 traced": ("enrich-traced", "--workload enrich --seed 1 --trace 1"),
    "detect seed 1": ("detect", "--workload detect --seed 1 --trace 0 --seconds 1"),
    "detect seed 1 traced": ("detect-traced", "--workload detect --seed 1 --trace 1"),
}

PINS = {
    "compare seed 1": "e351a19898a86abff40472cec8987759b06cfd449ec2a95cadc9a588e7b085a7",
    "compare seed 2": "84145b0acfabf00afdeb4e1e06eca7963cca6c7d0b0e6117e341658ea93f551b",
    "compare seed 7": "37eba5fa9f8e7df1c5b6f8ab6c2bb8fa19763dfe7ded79a85afa631a897ee696",
    "enrich seed 1": "65fcb50a94bd274d5d90b10d51ea2d2e430cfba38cbdedcfa52a29a14d4293c5",
    "enrich seed 2": "c17f3645587496e2ac5a022345328686d00b31c7d9c48e082fc342e277091aa8",
}


def _untraced(workload, seed, digest, attempted):
    return (f"# workload {workload}, seed {seed}, untraced\n"
            f"checks: 0 failed of {attempted}\n"
            f"output digest: sha256:{digest}\n"
            f'{{"correct": true, "attempted": {attempted}, "failed": 0, "metrics": '
            '{"setup_s": {"value": 0.0056, "unit": "s"}, "wall_s": {"value": 0.409, "unit": "s"}, '
            '"score_ksym_per_s": {"value": 187.8, "unit": "ksym/s"}, '
            '"peak_rss_mb": {"value": 22.95, "unit": "MB"}}}\n')


PASSING = {
    "compare seed 1": _untraced("compare", 1, PINS["compare seed 1"], 146),
    "compare seed 2": _untraced("compare", 2, PINS["compare seed 2"], 149),
    "compare seed 7": _untraced("compare", 7, PINS["compare seed 7"], 149),
    "enrich seed 1": _untraced("enrich", 1, PINS["enrich seed 1"], 1784),
    "enrich seed 2": _untraced("enrich", 2, PINS["enrich seed 2"], 1784),
    "compare seed 1 traced": (
        "# workload compare, seed 1, traced\n"
        "output digest: sha256:e351a19898a86abff40472cec8987759b06cfd449ec2a95cadc9a588e7b085a7\n"
        '{"correct": true, "attempted": 147, "failed": 0, "metrics": {'
        '"traces.files": {"value": 120, "unit": "count"}, '
        '"suffix_tree.builds": {"value": 1, "unit": "count"}, '
        '"covering.segments": {"value": 5224, "unit": "count"}, '
        '"covering.probes": {"value": 5224, "unit": "count"}, '
        '"evaluation.calls": {"value": 32, "unit": "count"}, '
        '"enrichment.iterations": {"value": 16, "unit": "count"}, '
        '"baselines.pairs": {"value": 11070, "unit": "count"}}}\n'),
    "enrich seed 1 traced": (
        "# workload enrich, seed 1, traced\n"
        "output digest: sha256:65fcb50a94bd274d5d90b10d51ea2d2e430cfba38cbdedcfa52a29a14d4293c5\n"
        '{"correct": true, "attempted": 1785, "failed": 0, "metrics": {'
        '"traces.files": {"value": 2579, "unit": "count"}, '
        '"suffix_tree.builds": {"value": 1, "unit": "count"}, '
        '"suffix_tree.build_peak_mb": {"value": 16.903236389160156, "unit": "MB"}, '
        '"covering.segments": {"value": 109752, "unit": "count"}, '
        '"covering.probes": {"value": 109752, "unit": "count"}, '
        '"evaluation.calls": {"value": 20, "unit": "count"}, '
        '"enrichment.iterations": {"value": 4, "unit": "count"}, '
        '"baselines.pairs": {"value": 0, "unit": "count"}}}\n'),
    # unpinned: the detect digest depends on the checkout's path
    "detect seed 1": _untraced("detect", 1,
                               "b746d976fb14426d1cd105678014aaecfaac8472448c711a3a4c6d3e95058e78", 10269),
    "detect seed 1 traced": (
        "# workload detect, seed 1, traced\n"
        "output digest: sha256:1b9601114a00fdb25f2884c74d945dcfb20a6b436cda204d0a85d704dfc4cee9\n"
        '{"correct": true, "attempted": 5152, "failed": 0, "metrics": {'
        '"traces.files": {"value": 5951, "unit": "count"}, '
        '"suffix_tree.builds": {"value": 1, "unit": "count"}, '
        '"suffix_tree.build_peak_mb": {"value": 15.627445220947266, "unit": "MB"}, '
        '"covering.segments": {"value": 70072, "unit": "count"}, '
        '"covering.probes": {"value": 70072, "unit": "count"}, '
        '"evaluation.calls": {"value": 0, "unit": "count"}, '
        '"enrichment.iterations": {"value": 0, "unit": "count"}, '
        '"baselines.pairs": {"value": 0, "unit": "count"}}}\n'),
}

# (run, metric, a value that fails the run's check on that metric); an
# equality is broken from both sides
BROKEN_METRICS = [
    ("compare seed 1 traced", "evaluation.calls", 0),
    ("compare seed 1 traced", "suffix_tree.builds", 0),
    ("compare seed 1 traced", "suffix_tree.builds", 2),
    ("compare seed 1 traced", "enrichment.iterations", 15),
    ("compare seed 1 traced", "enrichment.iterations", 17),
    ("compare seed 1 traced", "traces.files", 119),
    ("compare seed 1 traced", "traces.files", 121),
    ("compare seed 1 traced", "covering.probes", 5223),
    ("compare seed 1 traced", "covering.probes", 5225),
    ("compare seed 1 traced", "baselines.pairs", 11069),
    ("compare seed 1 traced", "baselines.pairs", 11071),
    ("enrich seed 1 traced", "suffix_tree.builds", 0),
    ("enrich seed 1 traced", "suffix_tree.builds", 2),
    ("enrich seed 1 traced", "enrichment.iterations", 3),
    ("enrich seed 1 traced", "enrichment.iterations", 5),
    ("enrich seed 1 traced", "traces.files", 2578),
    ("enrich seed 1 traced", "traces.files", 2580),
    ("detect seed 1 traced", "suffix_tree.builds", 0),
    ("detect seed 1 traced", "suffix_tree.builds", 2),
    ("detect seed 1 traced", "covering.probes", 70071),
    ("detect seed 1 traced", "covering.probes", 70073),
    ("detect seed 1 traced", "traces.files", 5950),
    ("detect seed 1 traced", "traces.files", 5952),
]

RUNS = {run.name: run for run in smoke.RUNS}


def _replace_once(text, old, new):
    assert text.count(old) == 1
    return text.replace(old, new)


def _fails_alone(name, stdout, fragment, exit_code=0):
    found = smoke.failures(RUNS[name], exit_code, stdout)
    assert len(found) == 1 and fragment in found[0], found
    assert found[0].startswith(f"{name}: ")


def test_the_table_holds_the_runs_ci_makes():
    assert {name: (run.step, " ".join(run.argv)) for name, run in RUNS.items()} == CALLS
    assert len(smoke.RUNS) == len(CALLS)  # and no run twice


def test_every_workflow_step_calls_the_checker_once():
    steps = re.findall(r"^\s*run: python3 ci/smoke\.py (\S+)$", WORKFLOW.read_text(), re.MULTILINE)
    assert sorted(steps) == sorted(smoke.STEPS)


@pytest.mark.parametrize("name", CALLS)
def test_passing_output_passes(name):
    assert smoke.failures(RUNS[name], 0, PASSING[name]) == []


@pytest.mark.parametrize("name", CALLS)
def test_correct_false_fails(name):
    _fails_alone(name, _replace_once(PASSING[name], '"correct": true', '"correct": false'), "correct")


@pytest.mark.parametrize("value", ["null", '"true"', "1"])
def test_correct_that_is_not_true_fails(value):
    stdout = _replace_once(PASSING["detect seed 1"], '"correct": true', f'"correct": {value}')
    _fails_alone("detect seed 1", stdout, "correct")


@pytest.mark.parametrize("name, pin", PINS.items())
def test_a_missing_pinned_digest_fails(name, pin):
    _fails_alone(name, _replace_once(PASSING[name], f"output digest: sha256:{pin}\n", ""), pin)


@pytest.mark.parametrize("name, metric, value", BROKEN_METRICS)
def test_a_broken_metric_fails(name, metric, value):
    stdout, count = re.subn(rf'"{re.escape(metric)}": {{"value": \d+', f'"{metric}": {{"value": {value}',
                            PASSING[name])
    assert count == 1
    _fails_alone(name, stdout, metric)


def _build_peak_fails(name, peak):
    stdout, count = re.subn(r'"suffix_tree\.build_peak_mb": \{"value": [\d.]+',
                            f'"suffix_tree.build_peak_mb": {{"value": {peak}', PASSING[name])
    assert count == 1
    _fails_alone(name, stdout, f"suffix_tree.build_peak_mb < 20: got {peak}")


@pytest.mark.parametrize("name", ["enrich seed 1 traced", "detect seed 1 traced"])
@pytest.mark.parametrize("peak", ["60", "60.0", "120.70499038696289"])  # an earlier bound, and a dict per state
def test_a_build_peak_of_60_mb_or_more_fails(name, peak):
    _build_peak_fails(name, peak)


@pytest.mark.parametrize("name, peak", [
    ("enrich seed 1 traced", "20"),
    ("enrich seed 1 traced", "20.0"),
    # 8-byte arrays and a dict slot in every state
    ("enrich seed 1 traced", "23.476219177246094"),
    ("detect seed 1 traced", "23.298961639404297"),
])
def test_a_build_peak_of_20_mb_or_more_fails(name, peak):
    _build_peak_fails(name, peak)


def test_one_changed_digit_in_a_digest_fails():
    pin = PINS["enrich seed 2"]
    changed = pin[:31] + "0" + pin[32:]
    assert changed != pin
    _fails_alone("enrich seed 2", _replace_once(PASSING["enrich seed 2"], pin, changed), pin)


@pytest.mark.parametrize("value", ["true", '"1"', "null"])
def test_a_metric_that_is_not_a_number_fails(value):
    stdout = _replace_once(PASSING["enrich seed 1 traced"], '"suffix_tree.builds": {"value": 1,',
                           f'"suffix_tree.builds": {{"value": {value},')
    _fails_alone("enrich seed 1 traced", stdout, "no number for suffix_tree.builds")


def test_a_digest_line_with_more_after_the_pin_fails():
    pin = PINS["compare seed 7"]
    _fails_alone("compare seed 7", _replace_once(PASSING["compare seed 7"], pin, pin + "0"), pin)


def test_a_missing_metric_fails():
    stdout = _replace_once(PASSING["compare seed 1 traced"],
                           ', "baselines.pairs": {"value": 11070, "unit": "count"}', "")
    _fails_alone("compare seed 1 traced", stdout, "no number for baselines.pairs")


def test_a_missing_metric_on_the_right_of_a_check_fails():
    stdout = _replace_once(PASSING["detect seed 1 traced"],
                           '"covering.segments": {"value": 70072, "unit": "count"}, ', "")
    _fails_alone("detect seed 1 traced", stdout, "no number for covering.segments")


@pytest.mark.parametrize("last", ["", '{"correct": true, "attempted": 5152', "[]", '{"correct": true}',
                                  "error: deadline exceeded"])
def test_a_malformed_last_line_fails(last):
    stdout = PASSING["detect seed 1 traced"].rsplit("\n", 2)[0] + "\n" + last
    _fails_alone("detect seed 1 traced", stdout, "the last line is not bench/run.py's JSON summary")


def test_no_output_fails():
    _fails_alone("detect seed 1", "", "the last line is not bench/run.py's JSON summary")


def test_a_non_zero_exit_fails():
    _fails_alone("detect seed 1", PASSING["detect seed 1"], "bench/run.py exited 1", exit_code=1)


def test_main_exits_1_naming_each_failure_and_runs_only_its_step(monkeypatch, capsys):
    called = []

    def execute(run):
        called.append(run.name)
        if run.name == "enrich seed 2":
            return 1, PASSING[run.name].replace('"correct": true', '"correct": false')
        return 0, PASSING[run.name]

    monkeypatch.setattr(smoke, "execute", execute)
    assert smoke.main([]) == 1
    assert called == list(CALLS)
    out = capsys.readouterr().out
    assert "FAILED: enrich seed 2: bench/run.py exited 1\n" in out
    assert "FAILED: enrich seed 2: correct is False, not True\n" in out
    assert out.count("FAILED:") == 2

    called.clear()
    assert smoke.main(["detect-traced"]) == 0
    assert called == ["detect seed 1 traced"]
    assert "FAILED" not in capsys.readouterr().out
