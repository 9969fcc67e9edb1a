"""The benchmark's reach into the package: every ``seqcover`` name that
``bench/`` imports, reads or patches still exists.

The benchmark itself runs only in the smoke runs (``ci/smoke.py``), so
without this test a removed or renamed name would first show there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import seqcover

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
    src = str(Path(seqcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), src])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
