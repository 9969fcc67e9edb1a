"""Symbolic sequences (system-call traces) and dataset ingestion.

A trace is a plain-text file of whitespace-separated decimal system-call
numbers. A dataset is up to three directories of traces: normal training,
normal validation and attacks. Each is read the same way, recursively, so
attack traces may sit in subdirectories (the usual public-corpus layout,
e.g. Attack_Data_Master/Adduser_1/...); they are all one class.
"""

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigurationError, TraceParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Sequence:
    """An ordered sequence of non-negative integer symbols.

    ``source_id`` is an opaque identifier (file path, or ``path:line`` in
    one-trace-per-line mode) used for deterministic tie-breaking and
    reporting.
    """

    symbols: tuple[int, ...]
    source_id: str = ""

    def __post_init__(self):
        symbols = self.symbols
        if not isinstance(symbols, tuple):
            symbols = tuple(symbols)
            object.__setattr__(self, "symbols", symbols)
        if symbols and min(symbols) < 0:
            raise ValueError(
                f"negative symbol in sequence {self.source_id!r}"
            )

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, item):
        return self.symbols[item]

    def __repr__(self) -> str:
        body = " ".join(map(str, self.symbols[:8]))
        if len(self.symbols) > 8:
            body += " ..."
        return f"Sequence([{body}], len={len(self.symbols)}, source_id={self.source_id!r})"


@dataclass(frozen=True)
class Dataset:
    """Loaded trace corpus: normal training/validation splits plus attacks."""

    normal_train: tuple[Sequence, ...]
    normal_validation: tuple[Sequence, ...]
    attacks: tuple[Sequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "normal_train", tuple(self.normal_train))
        object.__setattr__(self, "normal_validation", tuple(self.normal_validation))
        object.__setattr__(self, "attacks", tuple(self.attacks))


class _TokenTable(dict):
    """token -> symbol for one load, so each distinct token is checked and
    converted once (int() itself refuses more than 4,300 digits)."""

    def __missing__(self, token: str) -> int:
        if not (token.isascii() and token.isdigit()):
            raise ValueError("not ASCII decimal digits")
        value = self[token] = int(token)
        return value


def _parse(text: str, source_id: str, table: _TokenTable) -> Sequence:
    try:
        return Sequence(tuple(map(table.__getitem__, text.split())), source_id)
    except ValueError as exc:
        # the refused token is the first one the table lacks; no accepted token
        # (ASCII digits that int() took) contains it, so it first occurs in place
        token = next(token for token in text.split() if token not in table)
        shown = token[:200] + "…" * (len(token) > 200)
        where = f" in {source_id}" if source_id else ""
        raise TraceParseError(
            f"bad token {shown!r} at offset {text.index(token)}{where}: {exc}") from None


def parse_trace(text: str, source_id: str = "") -> Sequence:
    """Parse a trace into a Sequence. Tokens are those of ``str.split()``
    and must be ASCII decimal digits: signs, underscores and non-ASCII
    digits are refused. TraceParseError names the first bad token, its
    character offset and ``source_id``. Empty text gives an empty Sequence."""
    return _parse(text, source_id, _TokenTable())


def as_symbols(s) -> tuple[int, ...]:
    """The symbol tuple of a Sequence, a tuple or any iterable of symbols.

    A Sequence or a tuple is returned as it is, so calling this once per
    query costs nothing beyond the call.
    """
    symbols = getattr(s, "symbols", None)
    if symbols is not None:
        return symbols
    return s if isinstance(s, tuple) else tuple(s)


def deduplicate(sequences: Iterable[Sequence]) -> list[Sequence]:
    """Drop exact-content duplicates, keeping the first occurrence in order."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for seq in sequences:
        if seq.symbols not in seen:
            seen.add(seq.symbols)
            out.append(seq)
    return out


def read_trace_text(path: Path) -> str:
    """A trace file's text, decoded as UTF-8; TraceParseError names the
    file when it does not decode."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path} is not a UTF-8 text trace: {exc}") from None


def _read(root, one_trace_per: str) -> Iterator[Sequence]:
    """The traces of root, a trace file or a directory walked recursively in
    sorted path order."""
    if one_trace_per not in ("file", "line"):
        raise ConfigurationError(f"one_trace_per must be 'file' or 'line', got {one_trace_per!r}")
    if root == "":
        raise ConfigurationError("not a directory or a trace file: ''")
    root = Path(root)
    if root.is_dir():
        # sorted for deterministic dataset order regardless of filesystem
        paths = sorted(p for p in root.rglob("*") if p.is_file())
    elif root.is_file():
        paths = [root]
    else:
        raise ConfigurationError(f"not a directory or a trace file: {root}")
    table = _TokenTable()  # one for every file of the walk
    for path in paths:
        text = read_trace_text(path)
        if one_trace_per == "file":
            seq = _parse(text, str(path), table)
            if len(seq) == 0:
                log.warning("dropping empty trace %s", path)
                continue
            yield seq
        else:
            # "\n" only: read_text maps \r\n and \r to it; splitlines() also splits on \f, U+2028...
            for lineno, line in enumerate(text.split("\n"), start=1):
                if not line.strip():
                    continue
                yield _parse(line, f"{path}:{lineno}", table)


def load_traces(path, one_trace_per: str = "file") -> list[Sequence]:
    """Load one trace file, or every trace under a directory (recursively,
    sorted by path). Empty trace files are dropped with a warning. The
    empty path is refused, as ``Path("")`` would name the current directory."""
    return list(_read(path, one_trace_per))


def load_dataset(train_dir, validation_dir, attack_dir, one_trace_per: str = "file") -> Dataset:
    """Load a full dataset from trace directories.

    ``validation_dir`` may be None, and only None, for corpora that ship a
    single normal pool (the enrichment protocols can then split it
    randomly); ``""`` is refused like any other empty path. Exact-content
    duplicates are removed within each normal split, and any validation
    sequence already present in training is dropped, so no sequence
    appears in both. Attack traces are never deduplicated.
    """
    train = load_traces(train_dir, one_trace_per)
    validation = [] if validation_dir is None else load_traces(validation_dir, one_trace_per)
    attacks = load_traces(attack_dir, one_trace_per)

    loaded = len(validation)
    train = deduplicate(train)
    validation = deduplicate(validation)
    train_contents = {seq.symbols for seq in train}
    validation = [seq for seq in validation if seq.symbols not in train_contents]

    if not train:
        raise ConfigurationError(f"no training sequences loaded from {train_dir}")
    if validation_dir is not None and not loaded:
        raise ConfigurationError(f"no validation sequences loaded from {validation_dir}")
    if validation_dir is not None and not validation:
        raise ConfigurationError(
            f"all {loaded} validation sequences loaded from {validation_dir} duplicate training sequences")
    if not attacks:
        raise ConfigurationError(f"no attack sequences loaded from {attack_dir}")

    return Dataset(train, validation, attacks)
