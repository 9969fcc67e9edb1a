"""Command-line surface: cover, detect, enrich, compare.

Every command that writes files also writes a ``manifest.json`` capturing
the exact flags, so a run can be repeated identically (all randomness flows
from the single --seed flag; emitted files are written in a fixed order).
"""

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .detector import ANOMALY, DetectorConfig, anomaly_score, classify, score_batch
from .enrichment import METHODS, EnrichmentConfig, EnrichmentTrace, _initial_split, run_enrichment
from .errors import ConfigurationError, TraceParseError
from .evaluation import histogram, roc_curve
from .model import NormalModel
from .traces import Dataset, load_dataset, load_traces


def _open_out_dir(args: argparse.Namespace) -> Path:
    """Create ``--out-dir`` and write its ``manifest.json``; call once every check has passed."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "tool": "seqcover",
        "version": __version__,
        "command": args.command,
        "args": {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in sorted(vars(args).items())
            if key != "func"
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_dir


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: Fraction | float | None) -> str:
    return "" if value is None else f"{float(value):.6f}"


def _model_and_out_dir(args) -> tuple[NormalModel, Path | None]:
    """Read and check ``--model-dir``, open ``--out-dir`` if given, then build the index."""
    sequences = load_traces(args.model_dir, args.one_trace_per)
    if not sequences:
        raise ConfigurationError(f"no model sequences loaded from {args.model_dir}")
    out_dir = _open_out_dir(args) if args.out_dir else None
    return NormalModel(sequences), out_dir


def _cover_record(model: NormalModel, trace) -> dict:
    record = {**classify(model, DetectorConfig(), trace).as_record(), "length": len(trace)}
    keys = ("source_id", "length", "covering_size", "segments", "similarity", "similarity_decimal")
    return {key: record[key] for key in keys}  # the verdict is not reported


def cmd_cover(args) -> int:
    traces = load_traces(args.trace, args.one_trace_per)
    if len(traces) != 1:
        raise ConfigurationError(f"cover needs exactly one non-empty trace, {args.trace} holds {len(traces)}")
    model, out_dir = _model_and_out_dir(args)
    line = json.dumps(_cover_record(model, traces[0]))
    print(line)
    if out_dir:
        (out_dir / "covering.json").write_text(line + "\n")
    return 0


def cmd_detect(args) -> int:
    config = DetectorConfig(args.sigma)
    batch = load_traces(args.traces, args.one_trace_per)
    if not batch:
        raise ConfigurationError(f"no traces loaded from {args.traces}")
    model, out_dir = _model_and_out_dir(args)
    scored = score_batch(model, config, batch)
    lines = [json.dumps(item.as_record()) for item in scored]
    for line in lines:
        print(line)
    anomalies = sum(1 for item in scored if item.verdict == ANOMALY)
    print(
        f"scored {len(scored)} traces at sigma={float(config.sigma):g}: "
        f"{len(scored) - anomalies} normal, {anomalies} anomaly",
        file=sys.stderr,
    )
    if out_dir:
        (out_dir / "scores.jsonl").write_text("\n".join(lines) + "\n")
    return 0


def _protocol_prologue(args, time_budget_seconds: float | None = None) -> tuple[Dataset, EnrichmentConfig, Path]:
    """Check the settings, then the data, and only then create ``--out-dir``."""
    init_fraction = args.init_fraction
    if args.init == "fixed" and init_fraction is not None:
        raise ConfigurationError("--init-fraction applies only to --init random")
    if args.init == "random" and init_fraction is None:
        init_fraction = 0.1
    config = EnrichmentConfig(
        init_fraction=init_fraction,
        batch_size=args.batch_size,
        stop_train_fraction=args.stop_fraction,
        stop_max_iterations=args.stop_iterations,
        rng_seed=args.seed,
        time_budget_seconds=time_budget_seconds,
    )
    dataset = load_dataset(args.train_dir, args.validation_dir, args.attack_dir,
                           one_trace_per=args.one_trace_per)
    _initial_split(dataset, config)
    return dataset, config, _open_out_dir(args)


def _iteration_writer(out_dir: Path, bins: int):
    def write(record, scored_pool, scored_attacks):
        tag = f"{record.iteration:04d}"
        normal_anom = [anomaly_score(item.similarity) for item in scored_pool]
        attack_anom = [anomaly_score(item.similarity) for item in scored_attacks]
        _write_csv(out_dir / f"roc_{tag}.csv", ["false_positive_rate", "true_positive_rate"],
                   ([f"{float(x):.10g}", f"{float(y):.10g}"] for x, y in roc_curve(normal_anom, attack_anom)))
        normal_hist = histogram([item.similarity for item in scored_pool], bins)
        attack_hist = histogram([item.similarity for item in scored_attacks], bins)
        _write_csv(out_dir / f"hist_{tag}.csv", ["bin_lower_edge", "normal_count", "attack_count"],
                   ([f"{float(edge):.10g}", n_count, a_count]
                    for (edge, n_count), (_, a_count) in zip(normal_hist, attack_hist)))

    return write


def _write_trace_csv(path: Path, trace: EnrichmentTrace) -> None:
    header = ["iteration", "train_size", "train_fraction",
              "auc", "auc_excluding_exact_substring_attacks", "elapsed_seconds"]
    _write_csv(path, header, ([rec.iteration, rec.train_size, _fmt(rec.train_fraction),
                               _fmt(rec.auc), _fmt(rec.auc_excluding_exact_matches),
                               f"{rec.elapsed_seconds:.6f}"] for rec in trace.records))


def cmd_enrich(args) -> int:
    dataset, config, out_dir = _protocol_prologue(args)
    trace = run_enrichment(
        dataset, config,
        on_iteration=_iteration_writer(out_dir, args.bins),
    )
    _write_trace_csv(out_dir / "trace.csv", trace)
    status = "truncated" if trace.truncated else "completed"
    print(f"enrichment {status} after {len(trace.records)} iterations, "
          f"final auc {float(trace.records[-1].auc):.4f}; outputs in {out_dir}")
    return 0


def _parse_methods(raw: str) -> list[str]:
    canonical = {name.lower(): name for name in METHODS}
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        name = canonical.get(token.lower())
        if name is None:
            raise ConfigurationError(f"unknown method {token!r}, expected any of {', '.join(METHODS)}")
        if name not in out:
            out.append(name)
    if not out:
        raise ConfigurationError("no methods requested")
    return out


def cmd_compare(args) -> int:
    methods = _parse_methods(args.methods)
    dataset, config, out_dir = _protocol_prologue(args, args.per_method_budget_seconds)

    traces: dict[str, EnrichmentTrace] = {}
    for method in methods:
        traces[method] = run_enrichment(dataset, config, method=method)

    depth = max(len(trace.records) for trace in traces.values())
    rows = []
    for i in range(depth):
        sized = next(t.records[i] for t in traces.values() if len(t.records) > i)
        rows.append([sized.iteration, sized.train_size, _fmt(sized.train_fraction)]
                    + [_fmt(t.records[i].auc) if len(t.records) > i else "" for t in traces.values()])
    _write_csv(out_dir / "compare.csv", ["iteration", "train_size", "train_fraction"]
               + [f"auc_{method}" for method in methods], rows)

    rows = []
    for method, trace in traces.items():
        total = sum(rec.elapsed_seconds for rec in trace.records)
        mean = total / len(trace.records)  # the first iteration always runs
        rows.append([method, len(trace.records), f"{total:.6f}", f"{mean:.6f}",
                     str(trace.aborted).lower()])
    _write_csv(out_dir / "times.csv", ["method", "iterations", "total_elapsed_seconds",
                                       "mean_elapsed_seconds", "aborted"], rows)

    print(f"compared {', '.join(methods)} over {depth} iterations; outputs in {out_dir}")
    return 0


MAX_BINS = 10_000  # each iteration writes one histogram row per bin


def _bin_count(raw: str) -> int:
    value = int(raw)
    if not 1 <= value <= MAX_BINS:
        raise argparse.ArgumentTypeError(f"must lie in [1, {MAX_BINS}], got {value}")
    return value


def _output_directory(raw: str) -> str:
    """``--out-dir``: a directory, or a path that can be created as one; kept as typed."""
    path = Path(raw)
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not os.path.isdir(existing):
        prefix = "" if existing == path else f"cannot create {raw}: "
        raise argparse.ArgumentTypeError(f"{prefix}{existing} is not a directory")
    return raw


def _add_trace_format_flag(parser) -> None:
    parser.add_argument("--one-trace-per", choices=["file", "line"], default="file",
                        help="trace granularity inside input files (default: file)")


def _add_protocol_flags(parser) -> None:
    parser.add_argument("--train-dir", required=True, help="directory of normal training traces")
    parser.add_argument("--validation-dir", default=None,
                        help="directory of normal validation traces (optional)")
    parser.add_argument("--attack-dir", required=True, help="directory of attack traces")
    parser.add_argument("--init", choices=["fixed", "random"], default="fixed",
                        help="initial model: the training split as-is, or a random fraction "
                             "of all normal data (default: fixed)")
    parser.add_argument("--init-fraction", type=float, default=None,
                        help="fraction of normal data for --init random (default: 0.1); "
                             "rejected under --init fixed")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="worst-scoring normals moved into training per iteration (default: 1)")
    parser.add_argument("--stop-fraction", type=float, default=None,
                        help="stop once this fraction of normal data is in training (default: 0.5)")
    parser.add_argument("--stop-iterations", type=int, default=None,
                        help="stop after this many iterations")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    parser.add_argument("--out-dir", type=_output_directory, required=True, help="output directory")
    _add_trace_format_flag(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcover",
        description="Covering-similarity anomaly detection over system-call traces",
    )
    parser.add_argument("--version", action="version", version=f"seqcover {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    cover = commands.add_parser("cover", help="print the optimal covering of one trace")
    cover.add_argument("--model-dir", required=True, help="directory of normal traces")
    cover.add_argument("--trace", required=True, help="trace file to cover")
    cover.add_argument("--out-dir", type=_output_directory, default=None,
                       help="also write covering.json and manifest here")
    _add_trace_format_flag(cover)
    cover.set_defaults(func=cmd_cover)

    detect = commands.add_parser("detect", help="classify traces against a normal model")
    detect.add_argument("--model-dir", required=True, help="directory of normal traces")
    detect.add_argument("--traces", required=True, help="trace file or directory to classify")
    detect.add_argument("--sigma", default="0.97",
                        help="decision threshold in [0,1] (default: 0.97)")
    detect.add_argument("--out-dir", type=_output_directory, default=None,
                        help="also write scores.jsonl and manifest here")
    _add_trace_format_flag(detect)
    detect.set_defaults(func=cmd_detect)

    enrich = commands.add_parser("enrich", help="run the model-enrichment protocol")
    _add_protocol_flags(enrich)
    enrich.add_argument("--bins", type=_bin_count, default=20,
                        help=f"histogram bin count for per-iteration outputs, 1 to {MAX_BINS} (default: 20)")
    enrich.set_defaults(func=cmd_enrich)

    compare = commands.add_parser("compare", help="enrichment runs for several similarity methods")
    _add_protocol_flags(compare)
    compare.add_argument("--methods", default="SC4ID",
                         help="comma-separated subset of SC4ID,LEV,LCSq,LCSt")
    compare.add_argument("--per-method-budget-seconds", type=float, default=None,
                         help="abort a method once its total runtime exceeds this")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceParseError, ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
