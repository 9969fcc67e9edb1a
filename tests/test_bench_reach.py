"""The benchmark's reach into the package: every ``seqcover`` name that
``bench/`` imports, reads or patches still exists.

The benchmark itself runs only in the smoke runs (``ci/smoke.py``), so
without these tests a removed or renamed name, or a seam the probe patches
that the package no longer calls through, would first show there. The
probe tests run ``detect`` and ``compare`` under the bench's ``LayerProbe``
and check that every layer it counts saw the work.
"""

import ast
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seqcover

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _run_beside_the_bench(script: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c script argv...`` in a fresh process with ``bench/`` and the package on the path;
    the bench's probe patches modules for good, so it must not run in the test process."""
    src = str(Path(seqcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), src])}
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)


def _reach() -> list[tuple[str, str]]:
    """(module, name) for each ``from seqcover... import name`` in a bench
    module, function-local imports included, and each attribute read off a
    ``seqcover`` module that one imports whole."""
    reach = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "seqcover":
                reach.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                               if alias.name.split(".")[0] == "seqcover")
        reach.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return sorted(reach)


def test_the_bench_probe_installs_and_every_name_it_reaches_exists():
    reach = _reach()
    for seen in [("seqcover.covering", "greedy_cover_binary"),  # imported inside a bench/checks.py function
                 ("seqcover.evaluation", "rank_auc"),  # bench/workload.py
                 ("seqcover.detector", "greedy_cover")]:  # patched by bench/layers.py
        assert seen in reach
    script = (
        "import importlib, sys\n"
        "from layers import LayerProbe\n"
        "from spans import Recorder\n"
        "LayerProbe(Recorder()).install()\n"
        f"missing = [f'{{module}}.{{name}}' for module, name in {reach!r}\n"
        "           if not hasattr(importlib.import_module(module), name)]\n"
        "if missing:\n"
        "    sys.exit('missing: ' + ', '.join(missing))\n"
    )
    done = _run_beside_the_bench(script)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr


_PROBED_RUN = (
    "import io, json, sys\n"
    "from contextlib import redirect_stderr, redirect_stdout\n"
    "from layers import LayerProbe\n"
    "from spans import Recorder\n"
    "from seqcover.cli import main\n"
    "probe = LayerProbe(Recorder())\n"
    "probe.install()\n"
    "err = io.StringIO()\n"
    "with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'stderr': err.getvalue(), 'metrics': probe.metrics(0)}))\n"
)


def _probed_run(argv: list[str]) -> tuple[str, dict]:
    """One ``cli.main`` run under the bench's probe: its stderr and layer metrics."""
    done = _run_beside_the_bench(_PROBED_RUN, *argv)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0, result["stderr"]
    return result["stderr"], result["metrics"]


@pytest.fixture()
def probe_corpus(tmp_path):
    """Random traces over four symbols in train/, val/ and attack/."""
    rng = random.Random(11)
    for name, count in (("train", 3), ("val", 6), ("attack", 4)):
        (tmp_path / name).mkdir()
        for i in range(count):
            symbols = (rng.randrange(4) for _ in range(rng.randint(4, 20)))
            (tmp_path / name / f"{name}{i}.txt").write_text(" ".join(map(str, symbols)))
    return tmp_path


def test_the_bench_probe_sees_every_layer_of_detect(probe_corpus):
    stderr, metrics = _probed_run(["detect", "--model-dir", str(probe_corpus / "train"),
                                   "--traces", str(probe_corpus / "attack"), "--sigma", "0.7"])
    assert metrics["suffix_tree.builds"] == 1
    assert metrics["covering.probes"] == metrics["covering.segments"] > 0
    normal, anomalies = map(int, re.search(r"(\d+) normal, (\d+) anomaly", stderr).groups())
    assert normal > 0 and anomalies > 0  # so a count of every verdict would differ
    assert metrics["detector.anomalies"] == anomalies


def test_the_bench_probe_sees_every_layer_of_compare(probe_corpus, tmp_path):
    _, metrics = _probed_run([
        "compare", "--train-dir", str(probe_corpus / "train"), "--validation-dir", str(probe_corpus / "val"),
        "--attack-dir", str(probe_corpus / "attack"), "--methods", "SC4ID,LEV,LCSq,LCSt",
        "--batch-size", "2", "--stop-iterations", "2", "--out-dir", str(tmp_path / "out"),
    ])
    assert metrics["suffix_tree.builds"] == 1
    assert metrics["covering.probes"] == metrics["covering.segments"] > 0
    assert metrics["baselines.pairs"] > 0
    assert metrics["evaluation.calls"] > 0
    assert metrics["enrichment.iterations"] == 8  # two per method
