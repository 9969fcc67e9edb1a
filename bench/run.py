"""seqcover benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload detect|enrich|compare --seed N \
        --seconds S --trace 0|1

Generates the workload's seeded corpus under .bench_work/, runs the workload
in a fresh Python process against the checkout's src/, checks its outputs
and prints a report. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json for --trace 0 and the per-layer metrics for
--trace 1 (a traced run plus an untraced run of the same command, whose
wall-time difference is reported as the tracing overhead).

    python3 bench/run.py --real-corpora [--seconds S]

runs the detect and enrich shapes on ADFA-LD (ADFA_LD_DIR) and UNM
(UNM_DIR) when those are set, and prints their figures; these runs are
not part of the gated workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # the whole run, children included

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

# metric names and units are BENCHMARK.json's; these are printed, not gated
EXTRA_UNITS = {
    "trace_ms_p50": "ms", "trace_ms_p99": "ms", "trace_samples": "count", "rounds": "count",
    "iter_s_p50": "s", "iter_growth": "ratio", "iterations": "count",
    "method_s.SC4ID": "s", "method_s.LEV": "s", "method_s.LCSq": "s", "method_s.LCSt": "s",
    "failed_fraction": "ratio",
}


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_child(workload: str, corpus_dir: Path, out: Path, seconds: float, seed: int, mode: str,
              deadline: float) -> dict:
    """One workload process; returns its result, raises RuntimeError if it fails."""
    out.mkdir(parents=True)
    result_path = out.parent / f"{out.name}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--corpus", str(corpus_dir), "--out", str(out), "--seconds", str(seconds),
               "--seed", str(seed), "--mode", mode, "--result", str(result_path)]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} ({mode}) did not finish in time") from None
    if done.returncode != 0 or not result_path.is_file():
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"{workload} ({mode}) exited with {done.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def measure(workload: str, corpus_dir: Path, work: Path, seconds: float, seed: int, trace: bool,
            deadline: float) -> dict:
    if not trace:
        return run_child(workload, corpus_dir, work / "full", seconds, seed, "full", deadline)
    plain = run_child(workload, corpus_dir, work / "plain", seconds, seed, "cli", deadline)
    traced = run_child(workload, corpus_dir, work / "traced", seconds, seed, "traced", deadline)
    traced["layers"]["tracing.overhead_s"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
    traced["untraced_wall_s"] = plain["metrics"]["wall_s"]
    traced["checks"]["attempted"] += 1
    if traced["digest"] != plain["digest"]:
        traced["checks"]["failed"] += 1
        traced["checks"]["messages"].append("traced and untraced outputs differ")
    return traced


def report(workload: str, seed: int, trace: bool, shape: dict, result: dict) -> None:
    end_to_end, per_layer = declared_metrics()
    units = {**end_to_end, **EXTRA_UNITS}
    checks = result["checks"]
    metrics = dict(result["metrics"])
    metrics["failed_fraction"] = checks["failed"] / checks["attempted"]
    print(f"# workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}")
    splits = ", ".join(f"{name} {info['traces']} traces / {info['symbols']} symbols"
                       for name, info in shape.items())
    facts = result.get("shape", {})
    print(f"corpus: {splits}")
    if facts:
        print(f"corpus: mean k normal {facts['mean_k_normal']:.2f}, attack {facts['mean_k_attack']:.2f}; "
              f"exact-substring attacks {facts['exact_substring_attacks']}; "
              f"iteration-0 AUC {facts['auc_iteration0']:.6f}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    for name, samples in result.get("samples", {}).items():
        print(f"  ({name} is the median of {len(samples)} samples)")
    for name, value in result.get("layers", {}).items():
        print(f"  {name:<28} {value:>16.6f} {per_layer[name]}")
    for message in checks["messages"]:
        print(f"  FAILED: {message}")
    print(f"checks: {checks['failed']} failed of {checks['attempted']}")
    print(f"output digest: sha256:{result['digest']}")


def corpus_shape(corpus_dir: Path) -> dict:
    shape = {}
    for split in ("train", "validation", "batch/normal", "batch/attack", "attack"):
        directory = corpus_dir / split
        if directory.is_dir():
            files = [p for p in directory.rglob("*") if p.is_file()]
            symbols = sum(len(p.read_text().split()) for p in files)
            shape[split] = {"traces": len(files), "symbols": symbols}
    return shape


def gated(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload}-{seed}-{'traced' if trace else 'untraced'}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = work / "corpus"
    started = time.perf_counter()
    shape = corpus.generate(workload, seed, corpus_dir)
    generate_s = time.perf_counter() - started
    try:
        result = measure(workload, corpus_dir, work, seconds, seed, trace, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        attempted = sum(info["traces"] for name, info in shape.items() if name != "train")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1
    report(workload, seed, trace, shape, result)
    print(f"corpus generated in {generate_s:.2f} s")
    declared = declared_metrics()[1 if trace else 0]
    values = result["layers"] if trace else result["metrics"]
    checks = result["checks"]
    line = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


def real_corpora(seconds: float) -> int:
    found = corpus.real_corpora(os.environ)
    if not found:
        return fail("set ADFA_LD_DIR and/or UNM_DIR to run on the public corpora")
    for name, source in found.items():
        for workload in ("detect", "enrich"):
            deadline = time.monotonic() + 10 * DEADLINE_S
            work = WORK / f"real-{name}-{workload}"
            shutil.rmtree(work, ignore_errors=True)
            corpus_dir = work / "corpus"
            corpus.materialise(name, source, workload, corpus_dir)
            try:
                result = measure(workload, corpus_dir, work, seconds, 0, False, deadline)
            except RuntimeError as exc:
                print(f"error: {name} {workload}: {exc}", file=sys.stderr)
                continue
            print(f"## real corpus {name} ({source})")
            report(workload, 0, False, corpus_shape(corpus_dir), result)
            shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqcover benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.SHAPES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--real-corpora", action="store_true",
                        help="run the detect and enrich shapes on ADFA_LD_DIR / UNM_DIR")
    args = parser.parse_args(argv)
    if not (SRC / "seqcover" / "__init__.py").is_file():
        return fail(f"no seqcover sources under {SRC}; run from a full checkout")
    if args.real_corpora:
        return real_corpora(args.seconds)
    if args.workload is None:
        return fail("--workload is required")
    return gated(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
