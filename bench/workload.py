"""Run one benchmark workload in this (fresh, single-threaded) process.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src/):

    python3 bench/workload.py --workload detect --corpus DIR --out DIR \
        --seconds 30 --seed 1 --mode full|cli|traced --result FILE

Modes:
  full    untraced. detect: rounds of CLI command, set-up and a closed
          classify loop over the batch until --seconds have passed.
          enrich/compare: set-up repeated, then the CLI command. Then checks.
  cli     untraced CLI command only; the baseline for tracing overhead.
  traced  the CLI command with every layer wrapped in spans, then checks.

The result (metrics, per-layer metrics, checks, digest, corpus facts) is
written as JSON to --result.
"""

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
DETECT_MIN_ROUNDS = 3
ENRICH_FLAGS = ["--batch-size", "100", "--stop-iterations", "4"]
COMPARE_FLAGS = ["--methods", "SC4ID,LEV,LCSq,LCSt", "--batch-size", "6", "--stop-iterations", "4"]


class CountingSink:
    """Stand-in for stdout that keeps only the number of characters."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def cli_argv(workload: str, corpus: Path, out: Path) -> list[str]:
    if workload == "detect":
        return ["detect", "--model-dir", str(corpus / "train"), "--traces", str(corpus / "batch"),
                "--out-dir", str(out)]
    argv = [workload, "--train-dir", str(corpus / "train"),
            "--validation-dir", str(corpus / "validation"),
            "--attack-dir", str(corpus / "attack"), "--out-dir", str(out), "--init", "fixed"]
    return argv + (ENRICH_FLAGS if workload == "enrich" else COMPARE_FLAGS)


class EnrichmentCapture:
    """Times each ``run_enrichment`` the CLI makes, from outside, and keeps
    what the checks need: each iteration's record and scores, and the
    coverings of iteration 0."""

    def __init__(self, cli):
        self.runs: list[dict] = []
        run = cli.run_enrichment

        def timed(dataset, config, method="SC4ID", **kwargs):
            user_hook = kwargs.pop("on_iteration", None)
            lengths = {seq.source_id: len(seq)
                       for seq in dataset.normal_train + dataset.normal_validation + dataset.attacks}
            iterations = []

            def hook(record, scored_pool, scored_attacks):
                iterations.append({
                    "record": record,
                    "pool": [item.similarity for item in scored_pool],
                    "attacks": [item.similarity for item in scored_attacks],
                    "symbols": sum(lengths[item.source_id] for item in scored_pool)
                    + sum(lengths[item.source_id] for item in scored_attacks),
                    "scored": (scored_pool, scored_attacks) if not iterations else None,
                })
                if user_hook is not None:
                    user_hook(record, scored_pool, scored_attacks)

            started = time.perf_counter()
            trace = run(dataset, config, method=method, on_iteration=hook, **kwargs)
            self.runs.append({"method": method, "seconds": time.perf_counter() - started,
                              "iterations": iterations, "trace": trace})
            return trace

        cli.run_enrichment = timed


def run_cli(main, argv) -> tuple[float, int]:
    """The whole command through ``seqcover.cli.main`` (or its traced
    wrapper); stdout is counted, not kept. Returns (wall seconds,
    characters printed)."""
    sink = CountingSink()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    wall = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"seqcover {argv[0]} exited with {code}")
    return wall, sink.chars


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def setup_repeats(corpus: Path):
    """Time to load the dataset, repeated at least SETUP_MIN_REPEATS times
    and for SETUP_MIN_SECONDS in all, so a small corpus still gets a steady
    median; returns (median, samples)."""
    from seqcover.traces import load_dataset

    samples = []
    while len(samples) < SETUP_MIN_REPEATS or (
            sum(samples) < SETUP_MIN_SECONDS and len(samples) < SETUP_MAX_REPEATS):
        gc.collect()  # garbage left by the previous repeat is not this repeat's cost
        started = time.perf_counter()
        load_dataset(corpus / "train", corpus / "validation", corpus / "attack")
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), samples


def detect_rounds(cli, argv, batch, corpus: Path, deadline: float) -> dict:
    """Rounds of: the CLI command, one set-up, then a closed classify loop
    with one client (the next trace is sent once the previous verdict is
    back) over the next third of the batch. Rounds repeat, at least
    DETECT_MIN_ROUNDS times, while another round would end before the
    deadline, so every metric's samples are spread over the whole run
    rather than bunched in one part of it."""
    from seqcover.detector import DetectorConfig, classify
    from seqcover.model import NormalModel
    from seqcover.traces import load_traces

    config = DetectorConfig()
    chunk = -(-len(batch) // DETECT_MIN_ROUNDS)
    walls, setups, latencies = [], [], []
    similarities = {}
    symbols = loop_s = 0.0
    model = None
    round_s = 0.0
    while len(walls) < DETECT_MIN_ROUNDS or time.perf_counter() + round_s < deadline:
        round_started = time.perf_counter()
        model = None
        gc.collect()  # each command and set-up starts without the previous round's garbage
        wall, printed = run_cli(cli.main, argv)
        walls.append(wall)
        gc.collect()
        started = time.perf_counter()
        model = NormalModel(load_traces(corpus / "train"))
        setups.append(time.perf_counter() - started)
        start = (len(setups) - 1) * chunk % len(batch)
        started = time.perf_counter()
        for trace in batch[start:start + chunk]:
            t0 = time.perf_counter()
            scored = classify(model, config, trace)
            latencies.append(time.perf_counter() - t0)
            similarities[trace.source_id] = scored.similarity
            symbols += len(trace)
        loop_s += time.perf_counter() - started
        round_s = time.perf_counter() - round_started
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "score_ksym_per_s": symbols / loop_s / 1000,
            "trace_ms_p50": statistics.median(latencies) * 1000,
            "trace_ms_p99": percentile(latencies, 0.99) * 1000,
            "trace_samples": len(latencies),
            "rounds": len(walls),
        },
        "samples": {"wall_s": walls, "setup_s": setups},
        "printed": printed,
        "model": model,
        "similarities": similarities,
    }


def enrichment_metrics(capture: EnrichmentCapture) -> dict:
    by_index: dict[int, float] = {}
    symbols = seconds = 0.0
    out = {}
    for run in capture.runs:
        out[f"method_s.{run['method']}"] = run["seconds"]
        seconds += run["seconds"]
        for i, it in enumerate(run["iterations"]):
            by_index[i] = by_index.get(i, 0.0) + it["record"].elapsed_seconds
            symbols += it["symbols"]
    iteration_s = [by_index[i] for i in sorted(by_index)]
    out.update({
        "score_ksym_per_s": symbols / seconds / 1000,
        "iter_s_p50": statistics.median(iteration_s),
        "iter_growth": iteration_s[-1] / iteration_s[0],
        "iterations": len(iteration_s),
    })
    return out


def check_detect(tally, corpus: Path, out: Path, seed: int, model, batch, similarities) -> dict:
    from checks import Haystack, check_sample, covering_ok, sample_ids
    from seqcover.evaluation import auc_from_scores
    from seqcover.model import NormalModel
    from seqcover.traces import load_traces

    batch = {seq.source_id: seq for seq in batch}
    attack_ids = {seq.source_id for seq in load_traces(corpus / "batch" / "attack")}
    records = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
    tally.check(len(records) == len(batch), f"{len(records)} records for {len(batch)} traces")
    segments_by_id, similarity_by_id = {}, {}
    for rec in records:
        n = len(batch[rec["source_id"]])
        similarity = Fraction(rec["similarity"])
        segments_by_id[rec["source_id"]] = rec["segments"]
        similarity_by_id[rec["source_id"]] = similarity
        ok = covering_ok(n, [tuple(s) for s in rec["segments"]], similarity)
        ok = ok and rec["covering_size"] == len(rec["segments"])
        ok = ok and rec["verdict"] == ("normal" if similarity >= Fraction(97, 100) else "anomaly")
        tally.check(ok, f"bad covering record for {rec['source_id']}")
    for source_id, similarity in similarities.items():
        tally.check(similarity_by_id.get(source_id) == similarity,
                    f"classify and the CLI disagree on {source_id}")
    train = load_traces(corpus / "train")
    model = model or NormalModel(train)
    check_sample(tally, model, Haystack(seq.symbols for seq in train), batch, segments_by_id,
                 sample_ids(batch, attack_ids, seed))
    normal_k = [len(segments_by_id[i]) for i in batch if i not in attack_ids]
    attack_k = [len(segments_by_id[i]) for i in batch if i in attack_ids]
    auc0 = auc_from_scores([1 - similarity_by_id[i] for i in batch if i not in attack_ids],
                           [1 - similarity_by_id[i] for i in batch if i in attack_ids])
    return {
        "mean_k_normal": statistics.mean(normal_k),
        "mean_k_attack": statistics.mean(attack_k),
        "exact_substring_attacks": sum(similarity_by_id[i] == 1 for i in attack_ids),
        "auc_iteration0": float(auc0),
    }


def check_enrichment(tally, workload: str, corpus: Path, seed: int, capture) -> dict:
    from checks import Haystack, check_sample, covering_ok, sample_ids
    from seqcover.evaluation import rank_auc
    from seqcover.model import NormalModel
    from seqcover.traces import load_dataset

    expected_methods = 1 if workload == "enrich" else 4
    tally.check(len(capture.runs) == expected_methods,
                f"{len(capture.runs)} enrichment runs, expected {expected_methods}")
    for run in capture.runs:
        done = len(run["iterations"])
        tally.check(done == len(run["trace"].records) and (done == 4 or run["trace"].truncated),
                    f"{run['method']}: {done} iterations, expected 4 or an exhausted pool")
        for it in run["iterations"]:
            record = it["record"]
            normal = [1 - s for s in it["pool"]]
            attack = [1 - s for s in it["attacks"]]
            separable = [1 - s for s in it["attacks"] if s != 1]
            ok = record.auc == rank_auc(normal, attack)
            if separable:
                ok = ok and record.auc_excluding_exact_matches == rank_auc(normal, separable)
            tally.check(ok, f"{run['method']} iteration {record.iteration}: AUC != rank AUC")

    sc4id = next(run for run in capture.runs if run["method"] == "SC4ID")
    first = sc4id["iterations"][0]
    scored_pool, scored_attacks = first["scored"]
    dataset = load_dataset(corpus / "train", corpus / "validation", corpus / "attack")
    sequences = {seq.source_id: seq
                 for seq in dataset.normal_train + dataset.normal_validation + dataset.attacks}
    segments_by_id = {}
    for item in scored_pool + scored_attacks:
        n = len(sequences[item.source_id])
        segments_by_id[item.source_id] = item.covering.segments
        tally.check(covering_ok(n, item.covering.segments, item.similarity),
                    f"bad covering for {item.source_id}")
    attack_ids = {item.source_id for item in scored_attacks}
    model = NormalModel(dataset.normal_train)
    check_sample(tally, model, Haystack(seq.symbols for seq in dataset.normal_train), sequences,
                 segments_by_id, sample_ids(segments_by_id, attack_ids, seed))
    return {
        "mean_k_normal": statistics.mean(item.covering.size for item in scored_pool),
        "mean_k_attack": statistics.mean(item.covering.size for item in scored_attacks),
        "exact_substring_attacks": sum(item.similarity == 1 for item in scored_attacks),
        "auc_iteration0": float(first["record"].auc),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["detect", "enrich", "compare"], required=True)
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["full", "cli", "traced"], required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    import seqcover.cli as cli
    from checks import Tally, output_digest

    result: dict = {"workload": args.workload, "mode": args.mode, "metrics": {}}
    metrics = result["metrics"]
    probe = recorder = None
    command = cli.main
    if args.mode == "traced":
        from layers import LayerProbe
        from spans import Recorder

        recorder = Recorder()
        probe = LayerProbe(recorder)
        probe.install()
        command = recorder.wrap("cli", cli.main)
        gc.callbacks.append(recorder.on_gc)
    capture = EnrichmentCapture(cli) if args.workload != "detect" else None

    argv = cli_argv(args.workload, args.corpus, args.out)
    from seqcover.traces import load_traces

    model = batch = None
    similarities: dict = {}
    if args.mode == "full" and args.workload != "detect":
        # first, while the process is fresh: after the CLI command the heap
        # it freed would make every load's cost depend on that command
        metrics["setup_s"], setups = setup_repeats(args.corpus)
        result["samples"] = {"setup_s": setups}
        gc.collect()
    if args.mode == "full" and args.workload == "detect":
        batch = load_traces(args.corpus / "batch")  # the client's requests, resident throughout
        rounds = detect_rounds(cli, argv, batch, args.corpus, started + args.seconds)
        metrics.update(rounds["metrics"])
        result["samples"] = rounds["samples"]
        printed, model, similarities = rounds["printed"], rounds["model"], rounds["similarities"]
    else:
        metrics["wall_s"], printed = run_cli(command, argv)
    if capture is not None:
        metrics.update(enrichment_metrics(capture))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bytes_written = printed + sum(p.stat().st_size for p in args.out.iterdir())
    result["digest"] = output_digest(args.out)
    if probe is not None:
        gc.callbacks.remove(recorder.on_gc)
        probe.measure_largest_build()
        result["layers"] = probe.metrics(bytes_written)
        result["spans"] = len(recorder.spans)

    if args.mode != "cli":
        tally = Tally()
        if args.workload == "detect":
            batch = batch or load_traces(args.corpus / "batch")
            result["shape"] = check_detect(tally, args.corpus, args.out, args.seed, model, batch,
                                           similarities)
        else:
            result["shape"] = check_enrichment(tally, args.workload, args.corpus, args.seed, capture)
        result["checks"] = tally.as_dict()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
