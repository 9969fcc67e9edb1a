"""Seeded, ADFA-LD-shaped synthetic trace corpora.

Normal traces are walks over a shared vocabulary of recurring call phrases:
each of a few "programs" chains phrases through its own sparse successor
table, and both the phrase ranks and the successor choices are Zipf
weighted, so most of a normal trace re-occurs verbatim in other normal
traces and its covering stays at a few percent of its length. A small
per-phrase mutation rate gives the normal class a tail below sigma.

Attack traces are normal-looking walks with novel fragments spliced in
(payload phrases that no normal program emits, or runs of arbitrary
calls). A small share of attacks are verbatim slices of training traces,
which no history-based score can separate; they exercise the
``auc_excluding_exact_substring_attacks`` column.

The grammar (phrases, programs, payloads) and each split's multiset of
trace lengths are fixed; the seed decides which trace gets which length
and everything sampled from the grammar: the walks, the mutations, the
splices and which training traces attacks copy. Runs on different seeds
therefore do nearly the same amount of work on different traces. The same
seed always yields the same bytes.
"""

import itertools
import math
import os
import random
import shutil
from pathlib import Path

ATTACK_CATEGORIES = (
    "Adduser", "Hydra_FTP", "Hydra_SSH", "Java_Meterpreter", "Meterpreter", "Web_Shell",
)

ALPHABET_SIZE = 160
PHRASES = 400
PROGRAMS = 10
SUCCESSORS = 4
MUTATION_RATE = 0.012
PAYLOAD_PHRASES = 24
EXACT_ATTACK_SHARE = 0.03

# (trace count, symbol total) per split. ADFA-LD has 833 training traces
# (~308k symbols), 4,372 validation traces (~2.1M) and 746 attacks (~317k).
# Trace lengths are log-normal with shape LENGTH_SIGMA[workload].
SHAPES = {
    "detect": {
        "train": (833, 300_000),
        "batch/normal": (4372, 2_120_000),
        "batch/attack": (746, 317_000),
    },
    "enrich": {
        "train": (833, 300_000),
        "validation": (1000, 480_000),
        "attack": (746, 316_000),
    },
    # short traces: the quadratic baselines pay |a|*|b| per pair
    "compare": {
        "train": (24, 1_344),
        "validation": (60, 3_360),
        "attack": (36, 2_016),
    },
}
# compare's traces all have one length, so the DP cell count of a run does
# not depend on which traces enrichment happens to move
LENGTH_SIGMA = {"detect": 0.8, "enrich": 0.8, "compare": 0.0}


def _zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


class Grammar:
    """Phrase vocabulary, per-program successor tables and attack payloads."""

    def __init__(self, rng: random.Random):
        self.alphabet = rng.sample(range(1, 341), ALPHABET_SIZE)
        symbol_weights = _zipf_weights(ALPHABET_SIZE, 1.0)
        self.phrases = [
            tuple(rng.choices(self.alphabet, symbol_weights, k=rng.randint(3, 20)))
            for _ in range(PHRASES)
        ]
        phrase_weights = _zipf_weights(PHRASES, 1.1)
        self.programs = []
        for _ in range(PROGRAMS):
            table = [rng.choices(range(PHRASES), phrase_weights, k=SUCCESSORS)
                     for _ in range(PHRASES)]
            starts = rng.choices(range(PHRASES), phrase_weights, k=3)
            self.programs.append((table, starts))
        self.successor_cum = list(itertools.accumulate(_zipf_weights(SUCCESSORS, 1.5)))
        self.payloads = [
            tuple(rng.choice(self.alphabet) for _ in range(rng.randint(4, 14)))
            for _ in range(PAYLOAD_PHRASES)
        ]

    def normal(self, rng: random.Random, length: int) -> list[int]:
        table, starts = self.programs[rng.randrange(PROGRAMS)]
        phrase = rng.choice(starts)
        out: list[int] = []
        while len(out) < length:
            words = list(self.phrases[phrase])
            if rng.random() < MUTATION_RATE:
                words[rng.randrange(len(words))] = rng.choice(self.alphabet)
            out.extend(words)
            phrase = rng.choices(table[phrase], cum_weights=self.successor_cum)[0]
        return out[:length]

    def attack(self, rng: random.Random, length: int) -> list[int]:
        body = self.normal(rng, length)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                fragment = list(rng.choice(self.payloads))
            else:
                fragment = [rng.choice(self.alphabet) for _ in range(rng.randint(3, 12))]
            at = rng.randrange(max(1, length - len(fragment)))
            body[at:at] = fragment
        return body[:length]


def split_lengths(rng: random.Random, count: int, total: int, sigma: float = 0.8) -> list[int]:
    """Log-normal lengths (as in ADFA-LD, a few traces are very long),
    rescaled so they sum to ``total`` exactly; every length is >= 8."""
    raw = [rng.lognormvariate(0.0, sigma) for _ in range(count)]
    scale = (total - 8 * count) / sum(raw)
    lengths = [8 + math.floor(value * scale) for value in raw]
    for i in range(total - sum(lengths)):
        lengths[i % count] += 1
    return lengths


def _write(path: Path, symbols) -> None:
    path.write_text(" ".join(map(str, symbols)) + "\n")


def generate(workload: str, seed: int, root) -> dict:
    """Write the corpus for one workload under ``root`` and return its
    shape: traces and symbols per split, as written.

    Layout mirrors ADFA-LD: ``train/`` and ``validation/`` hold one trace per
    file, attack traces sit in one subdirectory per attack category. The
    detect workload's batch holds both classes under ``batch/``.
    """
    shape = SHAPES[workload]
    grammar = Grammar(random.Random("seqcover-bench:grammar"))
    rng = random.Random(f"seqcover-bench:{workload}:{seed}")
    root = Path(root)
    train: list[list[int]] = []
    written = {}
    for split, (count, total) in shape.items():
        lengths = split_lengths(random.Random(f"seqcover-bench:{workload}:{split}"),
                                count, total, LENGTH_SIGMA[workload])
        rng.shuffle(lengths)
        is_attack = split.endswith("attack")
        directory = root / split
        directory.mkdir(parents=True)
        if is_attack:
            for category in ATTACK_CATEGORIES:
                (directory / category).mkdir()
        symbol_count = 0
        for i, length in enumerate(lengths):
            if not is_attack:
                symbols = grammar.normal(rng, length)
                if split == "train":
                    train.append(symbols)
                symbol_count += len(symbols)
                _write(directory / f"{split.replace('/', '-')}-{i:05d}.txt", symbols)
                continue
            if rng.random() < EXACT_ATTACK_SHARE:
                long_enough = [t for t in train if len(t) >= length] or [max(train, key=len)]
                source = rng.choice(long_enough)
                offset = rng.randrange(len(source) - min(length, len(source)) + 1)
                symbols = source[offset:offset + length]
            else:
                symbols = grammar.attack(rng, length)
            category = ATTACK_CATEGORIES[i % len(ATTACK_CATEGORIES)]
            symbol_count += len(symbols)
            _write(directory / category / f"UAD-{category}-{i:05d}.txt", symbols)
        written[split] = {"traces": count, "symbols": symbol_count}
    return written


ADFA_SPLITS = {
    "train": "Training_Data_Master",
    "validation": "Validation_Data_Master",
    "attack": "Attack_Data_Master",
}
UNM_TRAIN_SHARE = 0.1


def real_corpora(environ) -> dict[str, Path]:
    """Public corpora named by ADFA_LD_DIR / UNM_DIR that have the expected
    layout. Nothing is downloaded: an unset or incomplete one is skipped."""
    found = {}
    adfa = environ.get("ADFA_LD_DIR")
    if adfa and all((Path(adfa) / d).is_dir() for d in ADFA_SPLITS.values()):
        found["ADFA-LD"] = Path(adfa)
    unm = environ.get("UNM_DIR")
    if unm and (Path(unm) / "normal").is_dir() and (Path(unm) / "attack").is_dir():
        found["UNM"] = Path(unm)
    return found


def _copy_traces(source: Path, dest: Path, per_line: bool, names=None) -> None:
    """Copy trace files keeping their relative paths; in per-line mode each
    non-blank line becomes a file of its own."""
    for path in sorted(p for p in source.rglob("*") if p.is_file()):
        rel = path.relative_to(source)
        if names is not None and str(rel) not in names:
            continue
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        if not per_line:
            shutil.copyfile(path, target)
            continue
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        for number, line in enumerate(lines, start=1):
            target.with_name(f"{target.name}.{number:05d}").write_text(line + "\n")


def materialise(name: str, source: Path, workload: str, root) -> None:
    """Lay a public corpus out like the synthetic one for ``workload``.

    ADFA-LD keeps its own training/validation/attack split. UNM ships one
    normal pool, split by a fixed seed into 10% training and the rest.
    ``UNM_TRACE_PER=line`` reads UNM files as one trace per line.
    """
    root = Path(root)
    normal_split = "batch/normal" if workload == "detect" else "validation"
    attack_split = "batch/attack" if workload == "detect" else "attack"
    if name == "ADFA-LD":
        _copy_traces(source / ADFA_SPLITS["train"], root / "train", False)
        _copy_traces(source / ADFA_SPLITS["validation"], root / normal_split, False)
        _copy_traces(source / ADFA_SPLITS["attack"], root / attack_split, False)
        return
    per_line = os.environ.get("UNM_TRACE_PER", "file") == "line"
    normals = sorted(str(p.relative_to(source / "normal"))
                     for p in (source / "normal").rglob("*") if p.is_file())
    random.Random(0).shuffle(normals)
    cut = max(1, round(UNM_TRAIN_SHARE * len(normals)))
    _copy_traces(source / "normal", root / "train", per_line, set(normals[:cut]))
    _copy_traces(source / "normal", root / normal_split, per_line, set(normals[cut:]))
    _copy_traces(source / "attack", root / attack_split, per_line)
