"""The bench smoke runs that CI makes, and their checks, in one table.

    python3 ci/smoke.py            # all nine runs, about a minute
    python3 ci/smoke.py STEP       # one workflow step: pinned, compare-traced,
                                   # enrich-traced, detect or detect-traced

Each run calls ``bench/run.py`` once and echoes its output. The script exits
1, naming every failed check, if any run exits non-zero, prints a digest
other than its pin, or fails a check on its final JSON line. Standard
library only, so it runs the same on a laptop as in the workflow.
"""

import argparse
import json
import operator
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "run.py"

OPS = {"==": operator.eq, ">": operator.gt}


@dataclass(frozen=True)
class Run:
    """One ``bench/run.py`` call and what its output must show.

    Every run must exit 0 and report ``correct`` true. ``digest`` pins the
    ``output digest: sha256:...`` line. Each check is ``(metric, op, bound)``
    over the final JSON line's metrics; a bound that is a string names
    another metric of the same line.
    """

    step: str
    workload: str
    seed: int
    trace: int = 0
    seconds: int | None = None
    digest: str | None = None
    checks: tuple[tuple[str, str, int | str], ...] = ()

    @property
    def name(self) -> str:
        return f"{self.workload} seed {self.seed}{' traced' if self.trace else ''}"

    @property
    def argv(self) -> list[str]:
        argv = ["--workload", self.workload, "--seed", str(self.seed), "--trace", str(self.trace)]
        return argv if self.seconds is None else [*argv, "--seconds", str(self.seconds)]


RUNS = (
    Run("pinned", "compare", 1, digest="e351a19898a86abff40472cec8987759b06cfd449ec2a95cadc9a588e7b085a7"),
    Run("pinned", "compare", 2, digest="84145b0acfabf00afdeb4e1e06eca7963cca6c7d0b0e6117e341658ea93f551b"),
    Run("pinned", "compare", 7, digest="37eba5fa9f8e7df1c5b6f8ab6c2bb8fa19763dfe7ded79a85afa631a897ee696"),
    Run("pinned", "enrich", 1, digest="65fcb50a94bd274d5d90b10d51ea2d2e430cfba38cbdedcfa52a29a14d4293c5"),
    Run("pinned", "enrich", 2, digest="c17f3645587496e2ac5a022345328686d00b31c7d9c48e082fc342e277091aa8"),
    # the evaluation spans are reached, the index is built once, 16 iterations
    # run, every corpus file is read once, covering probes the index once per
    # segment and the baselines score each of the 11,070 pairs once
    Run("compare-traced", "compare", 1, trace=1, checks=(
        ("evaluation.calls", ">", 0),
        ("suffix_tree.builds", "==", 1),
        ("enrichment.iterations", "==", 16),
        ("traces.files", "==", 120),
        ("covering.probes", "==", "covering.segments"),
        ("baselines.pairs", "==", 11070),
    )),
    # 833 training + 1,000 validation + 746 attack files
    Run("enrich-traced", "enrich", 1, trace=1, checks=(
        ("suffix_tree.builds", "==", 1),
        ("enrichment.iterations", "==", 4),
        ("traces.files", "==", 2579),
    )),
    Run("detect", "detect", 1, seconds=1),
    # 833 training + 5,118 batch files
    Run("detect-traced", "detect", 1, trace=1, checks=(
        ("suffix_tree.builds", "==", 1),
        ("covering.probes", "==", "covering.segments"),
        ("traces.files", "==", 5951),
    )),
)
STEPS = tuple(dict.fromkeys(run.step for run in RUNS))


def _number(value):
    return value if type(value) in (int, float) else None  # a bool is not a count


def failures(run: Run, exit_code: int, stdout: str) -> list[str]:
    """Name every check that ``run``'s exit code and output fail; empty if none."""
    found = [] if exit_code == 0 else [f"bench/run.py exited {exit_code}"]
    lines = stdout.splitlines()
    if run.digest is not None and f"output digest: sha256:{run.digest}" not in lines:
        found.append(f"no line 'output digest: sha256:{run.digest}'")
    try:
        line = json.loads(lines[-1])
        correct, metrics = line["correct"], line["metrics"]
        values = {name: metrics[name]["value"] for name in metrics}
    except (IndexError, ValueError, TypeError, KeyError):
        found.append("the last line is not bench/run.py's JSON summary")
        return [f"{run.name}: {message}" for message in found]
    if correct is not True:
        found.append(f"correct is {correct!r}, not True")
    for metric, op, bound in run.checks:
        got = _number(values.get(metric))
        wanted = _number(values.get(bound)) if isinstance(bound, str) else bound
        if got is None or wanted is None:
            found.append(f"{metric} {op} {bound}: no number for {metric if got is None else bound}")
        elif not OPS[op](got, wanted):
            against = f" against {wanted!r}" if isinstance(bound, str) else ""
            found.append(f"{metric} {op} {bound}: got {got!r}{against}")
    return [f"{run.name}: {message}" for message in found]


def execute(run: Run) -> tuple[int, str]:
    """Run ``bench/run.py`` for ``run``, echo its stdout and return its exit code and stdout."""
    print(f"$ python3 bench/run.py {' '.join(run.argv)}", flush=True)
    done = subprocess.run([sys.executable, str(BENCH), *run.argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    return done.returncode, done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CI's bench smoke runs and their checks")
    parser.add_argument("step", nargs="?", choices=STEPS, help="run only this step's runs (default: all)")
    args = parser.parse_args(argv)
    runs = [run for run in RUNS if args.step in (None, run.step)]
    failed = []
    for run in runs:
        failed += failures(run, *execute(run))
    print(f"smoke: {len(runs)} runs, {len(failed)} failed checks")
    for message in failed:
        print(f"FAILED: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
