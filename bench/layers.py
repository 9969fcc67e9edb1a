"""Span wrappers around the seqcover entry points, for the traced run only.

Each layer is reached through a module attribute that its caller resolves
at call time, so replacing that attribute puts a span around every call
without touching the package:

  traces       seqcover.cli.load_traces / load_dataset, seqcover.traces.load_traces
  suffix_tree  seqcover.model.GeneralizedSuffixIndex (what NormalModel builds)
  covering     seqcover.detector.greedy_cover
  detector     seqcover.detector.classify (what score_batch calls)
  evaluation   seqcover.enrichment.auc_from_scores, seqcover.cli.roc_curve / histogram
  enrichment   seqcover.cli.run_enrichment
  baselines    seqcover.enrichment.nearest_similarity_to_set, one span name per method
  cli          seqcover.cli.main and the per-iteration writer it hands to enrichment

Index probes (``contains_range`` and ``longest_match_from``) are counted,
not timed. Work the benchmark itself adds (index stats, the tracemalloc
rebuild) runs in ``tracing`` spans so no layer's self time absorbs it.
"""

import tracemalloc

import seqcover.cli as cli
import seqcover.detector as detector
import seqcover.enrichment as enrichment
import seqcover.model as model
import seqcover.traces as traces
from seqcover.suffix_tree import GeneralizedSuffixIndex

from spans import Recorder, layer_totals

BASELINE_METHODS = ("LEV", "LCSq", "LCSt")
_DP_METHODS = ("LEV", "LCSq")  # the quadratic ones: |a|*|b| cells per pair


class LayerProbe:
    """Installs the wrappers into one traced process and turns the recorded
    spans and counters into per-layer metrics."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.largest_build: tuple = ()
        self.largest_symbols = -1
        self.build_peak_bytes = 0

    def install(self) -> None:
        rec = self.rec
        counters = rec.counters

        def count_loaded(result, args, kwargs):
            counters["traces.files"] += len(result)
            counters["traces.symbols"] += sum(len(seq) for seq in result)

        load_traces = rec.wrap("traces", traces.load_traces, count_loaded)
        traces.load_traces = cli.load_traces = load_traces
        cli.load_dataset = rec.wrap("traces", cli.load_dataset)

        timed_index = rec.wrap("suffix_tree", GeneralizedSuffixIndex)

        def build(sequences=()):
            sequences = tuple(sequences)
            index = timed_index(sequences)
            span = rec.open("tracing")
            stats = index.stats()
            counters["suffix_tree.builds"] += 1
            counters["suffix_tree.nodes"] += stats["nodes"]
            counters["suffix_tree.indexed_symbols"] += stats["indexed_symbols"]
            if stats["indexed_symbols"] > self.largest_symbols:
                self.largest_symbols = stats["indexed_symbols"]
                self.largest_build = sequences
            rec.close(span)
            return index

        model.GeneralizedSuffixIndex = build

        for name in ("contains_range", "longest_match_from"):
            original = getattr(GeneralizedSuffixIndex, name)

            def counted(index, *args, _original=original):
                counters["covering.probes"] += 1
                return _original(index, *args)

            setattr(GeneralizedSuffixIndex, name, counted)

        def count_cover(result, args, kwargs):
            counters["covering.segments"] += result.size
            counters["covering.symbols"] += result.covered_length

        detector.greedy_cover = rec.wrap("covering", detector.greedy_cover, count_cover)

        def count_verdict(result, args, kwargs):
            counters["detector.anomalies"] += result.verdict == detector.ANOMALY

        detector.classify = rec.wrap("detector", detector.classify, count_verdict)

        enrichment.auc_from_scores = rec.wrap("evaluation", enrichment.auc_from_scores)
        cli.roc_curve = rec.wrap("evaluation", cli.roc_curve)
        cli.histogram = rec.wrap("evaluation", cli.histogram)

        def count_iterations(result, args, kwargs):
            counters["enrichment.iterations"] += len(result.records)

        cli.run_enrichment = rec.wrap("enrichment", cli.run_enrichment, count_iterations)

        make_writer = cli._iteration_writer
        cli._iteration_writer = lambda out_dir, bins: rec.wrap("cli", make_writer(out_dir, bins))

        method_of = {kind: method for method, kind in enrichment._BASELINE_BY_METHOD.items()}
        nearest = enrichment.nearest_similarity_to_set

        def count_pairs(result, args, kwargs):
            kind, references, seq = args[:3]
            counters["baselines.pairs"] += len(references)
            if method_of[kind] in _DP_METHODS:
                counters["baselines.dp_cells"] += len(seq) * sum(len(ref) for ref in references)

        per_method = {
            kind: rec.wrap(f"baselines.{method}", nearest, count_pairs)
            for kind, method in method_of.items()
        }
        enrichment.nearest_similarity_to_set = (
            lambda kind, *args, **kwargs: per_method[kind](kind, *args, **kwargs)
        )

    def measure_largest_build(self) -> None:
        """Rebuild the largest index under tracemalloc: its peak is the
        build's heap footprint, kept out of the timed builds."""
        span = self.rec.open("tracing")
        tracemalloc.start()
        try:
            GeneralizedSuffixIndex(self.largest_build)
            self.build_peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self.rec.close(span)

    def metrics(self, bytes_written: int) -> dict[str, float]:
        rec = self.rec
        counters = rec.counters
        totals = layer_totals(rec.spans)

        def total(name):
            return totals.get(name, {}).get("total", 0.0)

        def own(name):
            return totals.get(name, {}).get("self", 0.0)

        load_s = total("traces")
        segments = counters["covering.segments"]
        out = {
            "traces.load_s": load_s,
            "traces.ksym_per_s": counters["traces.symbols"] / load_s / 1000 if load_s else 0.0,
            "traces.files": counters["traces.files"],
            "suffix_tree.build_s": total("suffix_tree"),
            "suffix_tree.builds": counters["suffix_tree.builds"],
            "suffix_tree.nodes": counters["suffix_tree.nodes"],
            "suffix_tree.indexed_symbols": counters["suffix_tree.indexed_symbols"],
            "suffix_tree.build_peak_mb": self.build_peak_bytes / 2**20,
            "suffix_tree.gc_s": rec.gc_pause["suffix_tree"],
            "suffix_tree.gc_collections": rec.gc_collections["suffix_tree"],
            "covering.cover_s": total("covering"),
            "covering.segments": segments,
            "covering.mean_segment_len": counters["covering.symbols"] / segments if segments else 0.0,
            "covering.probes": counters["covering.probes"],
            "covering.probes_per_segment": counters["covering.probes"] / segments if segments else 0.0,
            "detector.self_s": own("detector"),
            "detector.anomalies": counters["detector.anomalies"],
            "evaluation.s": total("evaluation"),
            "evaluation.calls": totals.get("evaluation", {}).get("count", 0),
            "enrichment.self_s": own("enrichment"),
            "enrichment.iterations": counters["enrichment.iterations"],
            "baselines.pairs": counters["baselines.pairs"],
        }
        for method in BASELINE_METHODS:
            out[f"baselines.pair_s.{method}"] = total(f"baselines.{method}")
        out["baselines.dp_cells"] = counters["baselines.dp_cells"]
        out["cli.self_s"] = own("cli")
        out["cli.bytes_written"] = bytes_written
        out["gc.pause_s"] = sum(rec.gc_pause.values())
        return out
