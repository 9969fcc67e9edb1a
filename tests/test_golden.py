"""Golden outputs: ``detect``, ``enrich`` and ``compare`` on a small seeded
corpus must write the same bytes as the recorded run, apart from wall-clock
columns and the corpus's own location.

The corpus is built so that the CSVs say something: normals and attacks
share most of their alphabet (every AUC lies strictly between 0 and 1), one
attack is a verbatim substring of training (the two AUC columns differ),
one attack repeats a validation trace (its score ties across the classes),
and the runs take 4 iterations at batch size 2.
"""

import csv
import hashlib
import io
import json
import random
from pathlib import Path

from seqcover.cli import main

# sha256 of every CSV an unchanged run writes, elapsed_seconds columns dropped
ENRICH_DIGEST = "2e4af32e42ae4a29904e5a0cdc21b11cff488485f011a228dbc77ae2cf50a783"
COMPARE_DIGEST = "559e3ddbdb042719a25f3dc6e22835f8a105e89b808d8378fababa99193ac0e1"
# sha256 of detect's scores.jsonl for validation/ then attack/, source_ids relative to the corpus
DETECT_DIGEST = "25d55fe4da109ffc8fbd77b02ae2dbf1429da211505ab2e4a094ddc73706cb7c"

PROTOCOL = ["--batch-size", "2", "--stop-iterations", "4", "--seed", "5"]


def _write(path, symbols):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(" ".join(map(str, symbols)) + "\n")


def _corpus(root):
    rng = random.Random(2017)
    train = [[rng.randrange(5) for _ in range(rng.randint(30, 50))] for _ in range(3)]
    for i, trace in enumerate(train):
        _write(root / "train" / f"t{i}.txt", trace)
    validation = []
    for i in range(12):
        start = rng.randrange(20)
        trace = train[i % 3][start:start + rng.randint(8, 16)]
        for _ in range(i % 4):  # 0 to 3 substitutions, some by an unseen symbol
            trace[rng.randrange(len(trace))] = rng.randrange(6)
        validation.append(trace)
        _write(root / "validation" / f"v{i:02d}.txt", trace)
    attacks = [[rng.randrange(2, 8) for _ in range(rng.randint(10, 18))] for _ in range(5)]
    attacks.append(train[0][5:17])  # a verbatim substring of training
    attacks.append(validation[7])  # ties with a normal under every method
    for i, trace in enumerate(attacks):
        _write(root / "attack" / f"cat{i % 2}" / f"a{i}.txt", trace)
    return ["--train-dir", str(root / "train"), "--validation-dir", str(root / "validation"),
            "--attack-dir", str(root / "attack")]


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _digest(out_dir):
    """sha256 over each CSV's name and rows, without elapsed_seconds columns."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        rows = _rows(path.read_text())
        keep = [i for i, name in enumerate(rows[0]) if "elapsed_seconds" not in name]
        digest.update(f"{path.name}\n".encode())
        for row in rows:
            digest.update((",".join(row[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


def test_detect_writes_the_recorded_outputs(tmp_path, capsys):
    root = tmp_path / "corpus"
    _corpus(root)
    digest = hashlib.sha256()
    for split in ("validation", "attack"):
        out = tmp_path / f"detect_{split}"
        assert main(["detect", "--model-dir", str(root / "train"), "--traces", str(root / split),
                     "--out-dir", str(out)]) == 0
        for line in (out / "scores.jsonl").read_text().splitlines():
            record = json.loads(line)
            record["source_id"] = Path(record["source_id"]).relative_to(root).as_posix()
            digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == DETECT_DIGEST


def test_enrich_writes_the_recorded_outputs(tmp_path, capsys):
    data = _corpus(tmp_path / "corpus")
    out = tmp_path / "enrich"
    assert main(["enrich", *data, *PROTOCOL, "--bins", "5", "--out-dir", str(out)]) == 0
    trace = _rows((out / "trace.csv").read_text())[1:]
    assert len(trace) == 4
    assert all(0 < float(row[3]) < 1 for row in trace)
    assert any(row[3] != row[4] for row in trace)  # the exact-substring attack counts
    assert sorted(p.name for p in out.glob("*.csv")) == (
        [f"hist_{i:04d}.csv" for i in range(4)] + [f"roc_{i:04d}.csv" for i in range(4)] + ["trace.csv"])
    assert _digest(out) == ENRICH_DIGEST


def test_compare_writes_the_recorded_outputs(tmp_path, capsys):
    data = _corpus(tmp_path / "corpus")
    out = tmp_path / "compare"
    assert main(["compare", *data, *PROTOCOL, "--methods", "SC4ID,LEV,LCSq,LCSt",
                 "--out-dir", str(out)]) == 0
    rows = _rows((out / "compare.csv").read_text())[1:]
    assert len(rows) == 4
    assert all(0 < float(value) < 1 for row in rows for value in row[3:])
    assert sorted(p.name for p in out.glob("*.csv")) == ["compare.csv", "times.csv"]
    assert _digest(out) == COMPARE_DIGEST
