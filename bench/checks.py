"""Correctness checks on a workload's outputs, and the output digest.

Every check adds one to ``attempted`` and, if it fails, one to ``failed``;
the first few failure messages are kept for the report. None of these
checks reads the suffix index: segment admissibility and maximality are
decided by a plain substring search over the training traces.
"""

import csv
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path

MAX_MESSAGES = 10


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages}


def covering_ok(n: int, segments, similarity: Fraction) -> bool:
    """Contiguous, exhaustive, and scored as (n - k + 1) / n."""
    at = 0
    for start, end in segments:
        if start != at or end <= start:
            return False
        at = end
    return at == n and similarity == Fraction(n - len(segments) + 1, n)


class Haystack:
    """Naive substring membership over the training traces.

    Each trace is rendered as ``,a,b,c,`` and traces are joined by ``|``, so
    a rendered needle can only match inside one trace and on symbol
    boundaries.
    """

    def __init__(self, traces):
        self.text = "|".join(self._render(trace) for trace in traces)

    @staticmethod
    def _render(symbols) -> str:
        return "," + ",".join(map(str, symbols)) + ","

    def __contains__(self, symbols) -> bool:
        return self._render(symbols) in self.text


def greedy_maximal(haystack: Haystack, symbols, segments) -> bool:
    """Every segment longer than one symbol occurs in the training traces,
    and no segment still matches when extended by the next symbol: the
    covering is the greedy-maximal one, hence of minimal size."""
    n = len(symbols)
    for start, end in segments:
        if end - start >= 2 and symbols[start:end] not in haystack:
            return False
        if end < n and symbols[start:end + 1] in haystack:
            return False
    return True


def sample_ids(source_ids, positives, seed: int, per_class: int = 8) -> list[str]:
    """A seeded sample with up to ``per_class`` ids from each class."""
    rng = random.Random(seed)
    normals = sorted(i for i in source_ids if i not in positives)
    attacks = sorted(i for i in source_ids if i in positives)
    return (rng.sample(normals, min(per_class, len(normals)))
            + rng.sample(attacks, min(per_class, len(attacks))))


def check_sample(tally: Tally, model, haystack: Haystack, sequences: dict, segments_by_id: dict,
                 ids) -> None:
    """Naive maximality plus linear == binary == reported segments."""
    from seqcover.covering import greedy_cover_binary, greedy_cover_linear

    for source_id in ids:
        seq = sequences[source_id]
        reported = [tuple(seg) for seg in segments_by_id[source_id]]
        tally.check(greedy_maximal(haystack, seq.symbols, reported),
                    f"covering of {source_id} is not greedy-maximal")
        linear = list(greedy_cover_linear(model, seq).segments)
        binary = list(greedy_cover_binary(model, seq).segments)
        tally.check(linear == binary == reported,
                    f"linear/binary/reported segments differ on {source_id}")


def _digest_csv(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    keep = [i for i, name in enumerate(rows[0]) if "elapsed_seconds" not in name]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep if i < len(row)])
    return out.getvalue()


def output_digest(out_dir) -> str:
    """sha256 over the run's CSV and JSONL files, with every column whose
    name contains ``elapsed_seconds`` removed (the only non-reproducible
    output). Equal digests mean byte-identical results."""
    digest = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix not in (".csv", ".jsonl"):
            continue
        text = path.read_text()
        if path.suffix == ".csv":
            text = _digest_csv(text)
        digest.update(f"{path.name}\n".encode())
        digest.update(text.encode())
    return digest.hexdigest()
