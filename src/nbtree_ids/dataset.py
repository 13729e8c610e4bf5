"""KDD99-format record handling.

Connection records are comma-separated lines with one value per schema
attribute plus a trailing attack-name label (optionally period-terminated,
as in the published KDD99 files). A taxonomy, a dict from attack name to
class name, maps each label to one of the five traffic classes, and the
loader reads every label as its class. Loading assigns every example the
uniform weight 1/n; everything downstream treats a loaded dataset as
immutable and derives new datasets instead of mutating.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import pickle
import re
import signal
import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .exceptions import (
    DataFormatError,
    EmptyDatasetError,
    SchemaError,
    TaxonomyError,
    unexpected_as,
)

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# lines per block: the C reader reads a block in one call unless it raises
# on a line, and the reader's symbol columns stay small
_CHUNK_LINES = 1024
# a record file is read in ranges of at least this many bytes, one process
# each: a second process and the pass that cuts the file cost about 5 ms,
# which a range of about 0.3 MB pays back (KDD records, 2 vCPUs)
_RANGE_BYTES = 1 << 18
# the pass that cuts a file into ranges reads 64 KiB at a time, and a
# range's symbol codes are translated 8,192 rows (64 KiB of indexes) at a
# time: freeing a block over glibc's 128 KiB mmap threshold raises the
# heap's trim threshold, and with 1 MiB reads train-small peaked 2.7 MB higher
_PASS_BYTES = 1 << 16
_REMAP_ROWS = 1 << 13
_STR_WIDTH = 32  # bytes the C reader keeps of a symbol or a label
_SURROGATE = re.compile("[\ud800-\udfff]")
# characters the C reader reads otherwise than the reference path: it drops
# a NUL from the end of a symbol field, and \x1c-\x1f around a number
_READER_BLIND = "\0\x1c\x1d\x1e\x1f"
# the row a ValueError of the C reader names, in numpy 2's words: a number
# it cannot convert counts rows from 0, a wrong field count from 1
_RAISED_ROW = re.compile(r"could not convert .* at row (\d+), column \d+\.|the dtype passed "
                         r"requires \d+ columns but \d+ were found at row (\d+);.*", re.S)


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute: a name, a kind, and (for discrete kinds) its domain.

    A discrete attribute read from a schema file starts with an empty
    domain; the domain is then frozen from the data on first load.
    """

    name: str
    kind: str
    domain: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (DISCRETE, CONTINUOUS):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CONTINUOUS and self.domain:
            raise SchemaError(f"attribute {self.name!r}: continuous attributes take no domain")

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list plus the fixed class order.

    The attribute order is the record-field order; the class order is used
    for every argmax tie-break in the toolkit.
    """

    attributes: tuple[AttributeSpec, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        if len(set(self.class_names)) != len(self.class_names) or not self.class_names:
            raise SchemaError("class names must be non-empty and unique")
        object.__setattr__(self, "_attr_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_class_index", {c: i for i, c in enumerate(self.class_names)})

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def attribute_index(self, name: str) -> int:
        try:
            return self._attr_index[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def class_index(self, name: str) -> int:
        try:
            return self._class_index[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def structural_hash(self) -> str:
        """Hash over names, kinds and class order (domains excluded, so a
        permissively extended domain still pairs with the same models),
        computed once per schema."""
        if "_hash" not in self.__dict__:
            doc = {
                "attributes": [[a.name, a.kind] for a in self.attributes],
                "classes": list(self.class_names),
            }
            raw = json.dumps(doc, sort_keys=True).encode()
            object.__setattr__(self, "_hash", hashlib.sha256(raw).hexdigest()[:16])
        return self._hash

    def with_domains(self, domains: dict[str, tuple[str, ...]]) -> "Schema":
        attrs = tuple(
            AttributeSpec(a.name, a.kind, domains.get(a.name, a.domain))
            for a in self.attributes
        )
        return Schema(attrs, self.class_names)


@dataclass
class Example:
    """A single record: one value per schema attribute, the class its
    attack name maps to, and a non-negative weight.

    ``parse_record`` leaves the weight at 0; ``load_dataset`` assigns 1/n.
    """

    values: tuple
    label: str
    weight: float = 0.0


@dataclass
class LoadReport:
    """What happened while ingesting a record stream."""

    n_loaded: int = 0
    skipped: int = 0
    skipped_lines: list[int] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)
    reader_lines: int = 0  # lines the C reader read
    fallback_lines: int = 0  # lines it did not read, which parse_record decides
    seconds: float = 0.0
    readers: int = 1  # processes that read the stream

    def note_skip(self, line_number: int, reason: str) -> None:
        self.skipped += 1
        if len(self.skipped_lines) < 100:
            self.skipped_lines.append(line_number)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def add(self, part: "LoadReport") -> None:
        """Count in this report ``part``, the report of the stream's next
        range. ``seconds`` and ``readers`` are left to the caller."""
        self.n_loaded += part.n_loaded
        self.skipped += part.skipped
        self.skipped_lines = (self.skipped_lines + part.skipped_lines)[:100]
        for reason, count in part.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count
        self.reader_lines += part.reader_lines
        self.fallback_lines += part.fallback_lines


class WeightedDataset:
    """Columnar store of weighted examples sharing one schema.

    Discrete columns hold int32 codes into the attribute domain, continuous
    columns hold float64 values. ``labels`` are class indices in schema
    order. ``load_report`` describes the load a dataset came from;
    samples, splits and projections keep it. A derived dataset shares
    every array it does not replace with its parent, and nothing writes
    into these arrays.
    ``rank_memo`` holds one cell per column for ``probability.column_ranks``;
    a derived dataset shares the cells of the columns it keeps, and
    ``take`` starts with empty ones.
    """

    def __init__(
        self,
        schema: Schema,
        columns: list[np.ndarray],
        labels: np.ndarray,
        weights: np.ndarray,
        source: str | None = None,
        load_report: LoadReport | None = None,
        rank_memo: list[list] | None = None,
    ):
        n = len(labels)
        if len(columns) != schema.n_attributes:
            raise SchemaError("column count does not match schema")
        for col in columns:
            if len(col) != n:
                raise SchemaError("ragged columns")
        if len(weights) != n:
            raise SchemaError("weight count does not match example count")
        if n and not np.isfinite(weights).all():
            raise SchemaError("non-finite example weight")
        if n and np.any(weights < 0):
            raise SchemaError("negative example weight")
        if n and float(weights.sum()) <= 0:
            raise SchemaError("non-empty dataset must carry positive total weight")
        self.schema = schema
        self.columns = columns
        self.labels = np.asarray(labels, np.int64)
        self.weights = np.asarray(weights, np.float64)
        self.source = source
        self.load_report = load_report
        self.rank_memo = [[] for _ in columns] if rank_memo is None else rank_memo

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def example(self, i: int) -> Example:
        values = []
        for spec, col in zip(self.schema.attributes, self.columns):
            values.append(spec.domain[col[i]] if spec.is_discrete else float(col[i]))
        label = self.schema.class_names[self.labels[i]]
        return Example(tuple(values), label, float(self.weights[i]))

    @property
    def dataset_id(self) -> str:
        return self.source or f"<memory:{self.n} examples>"

    # -- derivations -------------------------------------------------------

    def _derive(self, **changes) -> "WeightedDataset":
        """This dataset with some constructor arguments replaced; every
        attribute is named after the argument it came from."""
        return WeightedDataset(**{**vars(self), **changes})

    def take(self, rows: np.ndarray) -> "WeightedDataset":
        rows = np.asarray(rows)
        return self._derive(
            columns=[col[rows] for col in self.columns],
            labels=self.labels[rows],
            weights=self.weights[rows],
            rank_memo=None,
        )

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        return self._derive(weights=np.asarray(weights, dtype=np.float64))

    def with_labels(self, labels: np.ndarray) -> "WeightedDataset":
        return self._derive(labels=np.asarray(labels, dtype=np.int64))

    def with_uniform_weights(self) -> "WeightedDataset":
        return self.with_weights(np.full(self.n, 1.0 / self.n))


# -- record parsing ---------------------------------------------------------


def parse_record(
    line: str,
    schema: Schema,
    taxonomy: dict[str, str],
    *,
    permissive: bool = False,
    line_number: int | None = None,
) -> Example:
    """Parse one comma-separated record into an :class:`Example`.

    The line must carry exactly one field per attribute plus the label, an
    attack name of ``taxonomy`` that may end with periods. In permissive
    mode discrete values outside a non-empty domain are accepted rather
    than rejected (the load loop extends the domain); numbers and arity
    are never forgiven. A line that holds a lone surrogate (a byte that did
    not decode as UTF-8) is rejected as ``bad-encoding``.
    """
    where = f" at line {line_number}" if line_number is not None else ""
    if _undecoded(line):
        raise DataFormatError(f"line is not valid UTF-8{where}", reason="bad-encoding")
    fields = line.rstrip("\r\n").split(",")
    expected = schema.n_attributes + 1
    if len(fields) != expected:
        raise DataFormatError(
            f"expected {expected} fields, got {len(fields)}{where}", reason="field-count"
        )
    values: list = []
    for spec, raw in zip(schema.attributes, fields):
        if spec.is_discrete:
            if spec.domain and raw not in spec.domain and not permissive:
                raise DataFormatError(
                    f"value {raw!r} outside domain of attribute {spec.name!r}{where}",
                    reason="out-of-domain",
                )
            values.append(raw)
        else:
            values.append(_parse_number(raw, spec.name, where))
    name = fields[-1].rstrip(".")
    label = taxonomy.get(name)
    if label is None:
        raise TaxonomyError(f"unknown attack name {name!r}{where}", reason="unknown-attack")
    if label not in schema.class_names:
        raise TaxonomyError(
            f"taxonomy maps {name!r} to unknown class {label!r}{where}",
            reason="unknown-class",
        )
    return Example(tuple(values), label, 0.0)


def _parse_number(raw: str, attribute: str, where: str) -> float:
    """A finite float, or DataFormatError: ``nan`` and ``inf`` parse as
    floats but are no valid measurement."""
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(
            f"unparseable number {raw!r} for attribute {attribute!r}{where}",
            reason="bad-number",
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"non-finite number {raw!r} for attribute {attribute!r}{where}", reason="bad-number"
        )
    return value


def _iter_lines(source, start: int = 0, count: int | None = None) -> Iterator[str]:
    """The lines of ``source``: an iterable of lines, or a record file read
    in text mode (universal newlines) from byte ``start``, a line start,
    for ``count`` lines or to its end."""
    if not isinstance(source, (str, Path)):
        yield from source
        return
    try:
        # undecodable bytes become lone surrogates, which parse_record rejects
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            fh.seek(start)  # the decoder holds no state at a line start
            yield from fh if count is None else islice(fh, count)
    except OSError as exc:
        raise DataFormatError(f"cannot read record file {source}: {exc}") from None


def load_dataset(
    source,
    schema: Schema,
    taxonomy: dict[str, str],
    *,
    permissive: bool = False,
) -> WeightedDataset:
    """Ingest a record stream (a path or any iterable of lines) and return
    a uniformly weighted dataset, whose report is ``load_report``.

    Each range of :func:`_map_ranges` is read as one batch into anonymous
    maps shared with its process, one per column and one for the labels,
    sized by every range's bound: a range's rows start where the previous
    range's bound ends. The ranges are then merged in stream
    order: a later range's symbol codes are translated into the
    first-appearance order of the whole stream, and its rows moved up past
    those earlier ranges did not keep. So the dataset, its domains and its
    report (but ``readers`` and ``seconds``) do not depend on the ranges.

    Lines are read in blocks of ``_CHUNK_LINES`` by numpy's C reader
    (:meth:`_Reader.read`), which leaves unread a line it raises on (a
    wrong field count, or a number it cannot read). Each symbol column is
    coded by table lookup (:func:`_codes`), and the label as its class
    index, -1 where a field is no key. One verdict then flags each row that
    :func:`parse_record` might judge otherwise: a line the C reader did not
    read, a non-finite number, a label with no class, in strict mode a
    symbol outside its non-empty domain, a symbol as wide as the reader's
    str width (it may have been cut), or a line holding an undecodable
    byte or a character of ``_READER_BLIND``. Only flagged lines go to
    :func:`parse_record`, whose verdict alone counts; a line it keeps
    overwrites its own row. Only its symbols and those the lookup missed
    are coded through the dicts, which grow in order of first appearance.

    In strict mode (default) the first bad record aborts the stream with
    that error; in permissive mode bad records are skipped and counted by
    reason in the report. A stream that keeps no record raises
    ``EmptyDatasetError`` with those counts. When ``source`` is a path,
    both errors begin with it. Unseen discrete values of kept records
    extend the attribute domain in permissive mode, and define it in
    either mode when the schema domain is empty.

    A fault that is no toolkit error, of a range's read, a fork or the
    merge, is raised as a ``DataFormatError`` that names the file and the
    fault's type (:func:`~.exceptions.unexpected_as`).
    """
    reader = _Reader(schema, taxonomy, LoadReport(), permissive, source)
    maps, starts = [], []

    def shared(bounds):
        total = sum(bounds)
        maps[:] = [np.frombuffer(mmap.mmap(-1, max(1, total * dtype.itemsize)), dtype, total)
                   for dtype in reader.dtypes]  # each freed with its last view
        starts[:] = np.cumsum([0, *bounds]).tolist()
        return lambda k, _: [arr[starts[k]:starts[k + 1]] for arr in maps]

    def keys(batches):
        for _ in batches:
            pass
        return reader.report.n_loaded, [list(reader.sym_index[j]) for j in reader.disc_idx]

    with unexpected_as(DataFormatError, f"{reader.what}: "):
        (n, _), *parts = _map_ranges(reader, source, keys, None, shared)
        for (kept, range_keys), row in zip(parts, starts[1:]):
            for j, symbols in zip(reader.disc_idx, range_keys):
                index = reader.sym_index[j]
                code = np.fromiter((index.setdefault(s, len(index)) for s in symbols),
                                   np.int32, len(symbols))
                if not np.array_equal(code, np.arange(len(code))):
                    for at in range(row, row + kept, _REMAP_ROWS):
                        block = slice(at, min(at + _REMAP_ROWS, row + kept))
                        maps[j][block] = code[maps[j][block]]
            if row != n:  # an earlier range did not fill its bound
                for arr in maps:
                    arr[n:n + kept] = arr[row:row + kept]
            n += kept
        return reader.dataset([arr[:n] for arr in maps])


def map_batches(source, schema: Schema, taxonomy: dict[str, str], report: LoadReport, fn, *,
                rows: int, permissive: bool = False) -> list:
    """``fn(batches)`` of each range of a record stream, in stream order
    (:func:`_map_ranges`): ``batches`` iterates over the range's uniformly
    weighted batches of ``rows`` examples or more, the last maybe fewer,
    each on the symbol domains read so far in its range (codes only grow)
    and in arrays of its own, so a batch held is never overwritten. The
    parser, the verdict and the errors are :func:`load_dataset`'s (a fault
    of ``fn`` that is no toolkit error is a data error too), and
    ``report`` counts the whole stream."""
    reader = _Reader(schema, taxonomy, report, permissive, source)

    def fresh(_bounds):
        return lambda _, n: [np.empty(n, dtype) for dtype in reader.dtypes]

    with unexpected_as(DataFormatError, f"{reader.what}: "):
        return _map_ranges(reader, source, lambda batches: fn(map(reader.dataset, batches)),
                           rows, fresh)


def _map_ranges(reader: _Reader, source, fn, rows: int | None, place) -> list:
    """``fn(batches)`` of each range of the record stream ``source``, in
    stream order: a file's :func:`_byte_ranges`, or an iterable of lines
    read as a list, one range bound by its length. This process maps the
    first range and a forked process each other one (:func:`fork_map`).
    ``place(bounds)``, called here once the stream is cut, gives
    ``outputs(k, n)``: range k's outputs for a batch of at most ``n``
    rows. ``batches`` iterates over the range's batches (the rows written
    to each output) of ``rows`` examples or more, the last maybe fewer,
    each in outputs of ``min(bound, rows + _CHUNK_LINES)`` rows; or with
    ``rows`` None over one batch in outputs of ``bound`` rows. Once ``fn``
    returns or raises, the rest of its range is read: a strict read's bad
    record in a range is raised before any error of ``fn`` there, and the
    earliest range's error before a later one's.

    ``reader.report`` then counts the whole stream as a one-range read
    does, but for ``readers``, the ranges, and ``seconds``: the cut pass,
    then the longest range's read, leaving out the time a batch is held. A
    stream that keeps no record raises ``EmptyDatasetError``. Any other
    exception, of a range's read, of ``fn`` or of a fork, is raised as it
    is: a worker's comes back through :func:`fork_map`, so the caller's
    wrap sees its type wherever it happened."""
    start = time.perf_counter()
    if isinstance(source, (str, Path)):
        ranges = _byte_ranges(source, reader.schema)
    else:
        source = list(source)
        ranges = [(0, 1, None, len(source))]
    cut = time.perf_counter() - start
    report = reader.report

    def map_range(k):
        byte, first, lines, bound = ranges[k]
        if k:
            reader.report = LoadReport()
        n = bound if rows is None else min(bound, rows + _CHUNK_LINES)
        batches = reader.batches(_iter_lines(source, byte, lines), first, rows,
                                 lambda: outputs(k, n))
        try:
            return fn(batches), reader.report
        finally:
            for _ in batches:
                pass

    outputs = place([bound for *_, bound in ranges])
    results = fork_map(reader.what, len(ranges), map_range, DataFormatError)
    for _, part in results[1:]:
        report.add(part)
    report.seconds = cut + max(part.seconds for _, part in results)
    report.readers = len(ranges)
    _check_kept(report, reader.at)
    return [result for result, _ in results]


def _check_kept(report: LoadReport, at: str) -> None:
    """Raise ``EmptyDatasetError``, beginning with ``at`` and giving the
    skips by reason, when the stream of ``report`` kept no record."""
    if report.n_loaded == 0:
        skips = ", ".join(f"{reason} {count}" for reason, count in report.reasons.items())
        raise EmptyDatasetError(f"{at}record source yielded no usable examples"
                                + (f" (skipped: {skips})" if skips else ""))


class _Reader:
    """The block loop of :func:`_map_ranges`, over one range of a record
    stream at a time. It writes each block's kept rows into ``out``, the
    outputs it is given for the batch it reads: one array per attribute
    and then the labels, each read as its class index, of ``dtypes`` and
    sized before the read. It counts in ``report``, and raises a strict
    load's first error, but never ``EmptyDatasetError``.
    ``sym_index`` holds one dict per discrete attribute, symbol -> code,
    in first-appearance order."""

    def __init__(self, schema: Schema, taxonomy: dict[str, str], report: LoadReport,
                 permissive: bool, source):
        attrs = self.attrs = schema.attributes
        self.schema, self.taxonomy, self.report, self.permissive = (
            schema, taxonomy, report, permissive)
        self.cont_idx = [j for j, a in enumerate(attrs) if not a.is_discrete]
        self.disc_idx = [j for j, a in enumerate(attrs) if a.is_discrete]
        # per discrete attribute: symbol -> code, insertion-ordered
        self.sym_index = {j: {s: i for i, s in enumerate(attrs[j].domain)} for j in self.disc_idx}
        self.checked = [j for j in self.disc_idx if attrs[j].domain and not permissive]
        # label field, with or without its period -> class index; parse_record
        # strips every period, so a name that ends in one is no label
        self.name_code = {r + end: schema.class_index(c) for r, c in taxonomy.items()
                          if c in schema.class_names and not r.endswith(".") for end in ("", ".")}
        self.dtypes = [np.dtype(np.int32 if a.is_discrete else np.float64) for a in attrs]
        self.dtypes.append(np.dtype(np.int64))
        self.out, self.n = [], 0  # the outputs of the batch being read, rows written to them
        self.indexes = {**self.sym_index, -1: self.name_code}  # the symbol columns, then the label
        self.tables = {j: [] for j in self.indexes}  # their key tables, kept by `_codes`
        self.record, self.packed = _reader_dtypes(attrs)
        self.src = str(source) if isinstance(source, (str, Path)) else None
        self.at = f"{self.src}: " if self.src else ""
        self.what = f"cannot read record file {self.src}" if self.src else "cannot read records"

    def batches(self, lines: Iterable[str], first: int, rows: int | None, outputs
                ) -> Iterator[list[np.ndarray]]:
        """Read ``lines``, the first of them line number ``first``, one
        block at a time, as batches of ``rows`` examples or more, the last
        maybe fewer, or with ``rows`` None as one batch; each batch into the
        outputs that ``outputs()`` gives, and yielded as the rows written
        to them. The report's ``seconds`` leave out the time a batch is
        held."""
        start = time.perf_counter()
        self.out = outputs()
        numbered = enumerate(lines, start=first)
        while block := list(islice(numbered, _CHUNK_LINES)):
            if chunk := [(ln, text) for ln, text in block if text.strip()]:
                self.flush(chunk)
            if rows is not None and self.n >= rows:
                batch = self.take_batch()
                self.report.seconds += time.perf_counter() - start
                yield batch
                start = time.perf_counter()
                self.out = outputs()
        batch = self.take_batch() if self.n else None
        self.report.seconds += time.perf_counter() - start
        if batch is not None:
            yield batch

    def read(self, texts: list[str], joined: str):
        """The block's numbers (one row per continuous attribute), its symbol
        columns and labels by column (the label as -1) as UTF-8 bytes, and
        the rows the C reader may have misread: a line it did not read, or
        a symbol it may have cut to its width. A block that is not ASCII is
        read as the latin-1 view of its UTF-8 bytes. When the C reader
        raises on the row its message names, it reads on from the next row
        and leaves that row zero; when the message names no row, or it
        raises on two rows in a row, it reads no more of the block."""
        m = len(texts)
        if not joined.isascii():
            texts = [text.encode("utf-8", "surrogatepass").decode("latin-1") for text in texts]
        c_read = partial(np.loadtxt, delimiter=",", comments=None, ndmin=1, dtype=self.record)
        parts, unread = [], []  # (first row, rows read) each, and the rows not read
        start, rest = 0, texts  # the lines from row `start` on
        while rest:
            try:
                parts.append((start, c_read(rest)))
                break
            except ValueError as exc:  # a wrong field count or a number it cannot read
                named = _RAISED_ROW.fullmatch(str(exc))
            row = named and int(named[1] or int(named[2]) - 1)
            if row is None or start and not row:
                unread += range(start, m)
                break
            if row:
                parts.append((start, c_read(rest[:row])))
            unread.append(start + row)
            start, rest = start + row + 1, rest[row + 1:]
        # a clean block, read in one call, is not copied
        block = np.zeros(m, self.record) if unread else parts.pop()[1]
        for at, part in parts:
            block[at:at + len(part)] = part
        self.report.reader_lines += m - len(unread)
        self.report.fallback_lines += len(unread)
        block = block.view(self.packed)
        symbols = block["symbols"]
        # a field may have been cut when its last byte is not NUL
        misread = symbols.view(np.uint8)[:, _STR_WIDTH - 1::_STR_WIDTH].any(axis=1)
        misread[unread] = True
        return block["numbers"].T, dict(zip(self.indexes, symbols.T)), misread

    def flush(self, chunk: list[tuple[int, str]]) -> None:
        cont_idx, out = self.cont_idx, self.out
        texts = [text for _, text in chunk]
        joined = "".join(texts)
        m = len(texts)
        numbers, symbols, flagged = self.read(texts, joined)
        codes = {j: _codes(symbols[j], index, self.tables[j]) for j, index in self.indexes.items()}
        # the verdict: every row parse_record might judge otherwise than read
        flagged |= ~np.isfinite(numbers).all(axis=0)
        for j in (*self.checked, -1):
            flagged |= codes[j] < 0
        if _reader_may_misread(joined):
            flagged |= np.fromiter(map(_reader_may_misread, texts), bool, m)
        keep = np.ones(m, dtype=bool)
        kept_values = {}  # row -> values of a flagged line parse_record keeps
        for i in np.flatnonzero(flagged).tolist():
            ln = chunk[i][0]
            try:
                ex = parse_record(texts[i], self.schema, self.taxonomy,
                                  permissive=self.permissive, line_number=ln)
            except DataFormatError as exc:
                if not self.permissive:
                    raise type(exc)(f"{self.at}{exc}", reason=exc.reason) from None
                self.report.note_skip(ln, exc.reason)
                keep[i] = False
                continue
            numbers[:, i] = [ex.values[j] for j in cont_idx]
            kept_values[i] = ex.values
            codes[-1][i] = self.schema.class_index(ex.label)
        # a kept row the lookup missed or parse_record decided is coded by
        # its symbol dict, which grows in first-appearance order
        for j in self.disc_idx:
            index, code, read_symbols = self.sym_index[j], codes[j], symbols[j]
            for i in np.flatnonzero(keep & (flagged | (code < 0))).tolist():
                s = kept_values[i][j] if i in kept_values else read_symbols[i].decode()
                code[i] = index.setdefault(s, len(index))
        if not keep.all():
            numbers = numbers[:, keep]
            codes = {j: code[keep] for j, code in codes.items()}
        n, n_kept = self.n, len(codes[-1])
        if n + n_kept > len(out[-1]):  # more rows than the file's size allows
            raise DataFormatError(f"{self.at}record file grew while it was read")
        new = slice(n, n + n_kept)
        for j, row in zip(cont_idx, numbers):
            out[j][new] = row
        for j, code in codes.items():
            out[j][new] = code
        self.n += n_kept

    def take_batch(self) -> list[np.ndarray]:
        """The rows written to ``out``; the reader counts the next from row
        0."""
        batch = [arr[:self.n] for arr in self.out]
        self.report.n_loaded, self.n = self.report.n_loaded + self.n, 0
        return batch

    def dataset(self, batch: list[np.ndarray]) -> WeightedDataset:
        """The uniformly weighted dataset of ``batch``'s columns and labels,
        on the symbol domains read so far."""
        *columns, labels = batch
        n = len(labels)
        return WeightedDataset(
            self.schema.with_domains({self.attrs[j].name: tuple(self.sym_index[j])
                                      for j in self.disc_idx}),
            columns, labels, np.full(n, 1.0 / n), source=self.src, load_report=self.report)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _max_processes() -> int:
    """The most processes a :func:`fork_map` may use: one per usable CPU
    on a host with ``os.fork``, else one."""
    return _usable_cpus() if hasattr(os, "fork") else 1


def _byte_ranges(path, schema: Schema) -> list[tuple[int, int, int | None, int]]:
    """The ranges of the record file ``path`` that a read of ``schema``'s
    records takes, one process each: ``(first byte, first line number,
    lines, bound)`` each, ``bound`` the most rows the range can keep. There
    are at most :func:`_max_processes`, each at least ``_RANGE_BYTES``
    long, and each bound by its lines. A file too small for two, or one
    that cannot be read, is one range, ``(0, 1, None, bound)``, read to its
    end with no pass over it first. A kept record holds a comma per
    attribute and a character per number, and a line break unless it ends
    the file, so a file of ``size`` bytes keeps at most ``(size + 1) //
    (attributes + numbers + 1)`` rows.

    Line breaks are counted as text mode reads them: ``\\n``, ``\\r`` and
    ``\\r\\n`` once each. A cut is the end of the first block at or past
    its even share of the file and ``_RANGE_BYTES`` past the previous cut:
    just past the line break that ends a multiple of ``_CHUNK_LINES``
    lines. So every range starts a block, and reads the blocks a one-range
    read does."""
    fewest = schema.n_attributes + sum(not a.is_discrete for a in schema.attributes) + 1
    size = 0
    try:
        size = os.path.getsize(path)
        readers = min(_max_processes(), size // _RANGE_BYTES)
        if readers < 2:
            return [(0, 1, None, (size + 1) // fewest)]
        cuts = []  # (byte, line breaks before it) of each range after the first
        want = size // readers  # the next cut lies at or past this byte
        pos = breaks = 0
        last = b""
        with open(path, "rb") as fh:
            while data := fh.read(_PASS_BYTES):
                while data.endswith(b"\r") and (more := fh.read(1)):
                    data += more  # no \r\n is split between two reads
                if len(cuts) < readers - 1 and want <= pos + len(data):
                    a = np.frombuffer(data, np.uint8)
                    # the byte past each \n, \r\n, and \r that no \n follows
                    lone_cr = (a == 13) & (np.append(a[1:], 0) != 10)
                    ends = pos + 1 + np.flatnonzero((a == 10) | lone_cr)
                    numbers = breaks + np.arange(1, len(ends) + 1)
                    for k in np.flatnonzero(numbers % _CHUNK_LINES == 0).tolist():
                        if ends[k] >= want and len(cuts) < readers - 1:
                            cuts.append((int(ends[k]), int(numbers[k])))
                            want = max(size * (len(cuts) + 1) // readers,
                                       cuts[-1][0] + _RANGE_BYTES)
                    breaks += len(ends)
                else:
                    breaks += data.count(b"\n")
                    if b"\r" in data:  # a search costs far less than a count
                        breaks += data.count(b"\r") - data.count(b"\r\n")
                pos, last = pos + len(data), data[-1:]
    except OSError:  # the one-range read reports it
        return [(0, 1, None, (size + 1) // fewest)]
    breaks += last not in (b"", b"\n", b"\r")  # a last line with no line break
    cuts = [cut for cut in cuts if pos - cut[0] >= _RANGE_BYTES]
    starts, ends = [(0, 0), *cuts], [*cuts, (pos, breaks)]
    return [(byte, before + 1, after - before, after - before)
            for (byte, before), (_, after) in zip(starts, ends)]


def fork_map(what: str, n: int, fn, error: type[Exception]) -> list:
    """``[fn(0), ..., fn(n - 1)]``: ``fn(0)`` in this process, each other
    in a forked process (:func:`_worker`), which sends its result back
    pickled through a pipe. Raises the exception of the earliest item that
    failed, as it was raised, and reaps every worker, killing any still
    running, on every way out. A worker that ends without a result raises
    ``error`` naming ``what`` and how the worker ended (the signal that
    killed it, or its exit status); one whose exception does not pickle
    raises ``error`` naming ``what`` and that exception's type and
    message. With ``n`` 1 nothing is forked: ``fn(0)`` in this process is
    the whole call, so a caller needs no second path for one item.

    The workers are forked, not spawned, so that they share what this
    process holds (the maps a load writes into, the models an eval scores,
    a training set and a node's rows) and need nothing pickled but their
    results. numpy's BLAS threads are already running then, so a worker
    calls no BLAS: reading, coding, scoring, fitting and cross-validating
    use none."""
    workers = []  # (pid, result pipe) per item after the first
    reaped = set()  # pids already waited for, which may have been reused
    try:
        for k in range(1, n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # a worker, which never leaves _worker
                    _worker(fn, k, write_end)
            except OSError:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            workers.append((pid, os.fdopen(read_end, "rb")))
        results = [fn(0)]
        for pid, pipe in workers:
            result = pipe.read()
            if not result:
                status = os.waitpid(pid, 0)[1]
                reaped.add(pid)
                raise error(f"{what}: worker process {pid} ended without a result: "
                            f"{_how_ended(status)}")
            kind, value = pickle.loads(result)
            if kind == "raised":
                raised, described = value
                try:
                    exc = pickle.loads(raised)
                except Exception:  # it did not pickle, or does not unpickle
                    exc = error(f"{what}: worker process {pid} raised {described}")
                raise exc from None
            results.append(value)
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)  # a process that ended is a zombie until reaped
                os.waitpid(pid, 0)
    return results


def _how_ended(status: int) -> str:
    """How a reaped process ended, from its wait status."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with status {code}"
    try:
        name = f" ({signal.Signals(-code).name})"
    except ValueError:  # a real-time signal has no name
        name = ""
    return f"killed by signal {-code}{name}"


def _worker(fn, k: int, pipe: int) -> NoReturn:
    """A worker of :func:`fork_map`: write to the fd ``pipe`` ``fn(k)``
    pickled, or the exception it raised, pickled (None if it does not
    pickle), with its type's name and its message; and end with
    ``os._exit``, so no exit handler runs and no inherited buffer is
    flushed."""
    try:
        try:
            result = pickle.dumps(("ok", fn(k)))
        except BaseException as exc:  # reported to the parent, which raises it
            try:
                raised = pickle.dumps(exc)
            except Exception:
                raised = None
            result = pickle.dumps(("raised", (raised, f"{type(exc).__name__}: {exc}")))
        with os.fdopen(pipe, "wb") as fh:
            fh.write(result)
    finally:
        os._exit(0)


def _reader_dtypes(attrs: Sequence[AttributeSpec]) -> tuple[np.dtype, np.dtype]:
    """The C reader's record dtype, one field per record field in line
    order, with the symbols and the label as bytes ``_STR_WIDTH`` wide;
    and a view of the same bytes as one ``numbers`` row and one
    ``symbols`` row: the numbers are packed first, then the symbols and
    the label."""
    kinds = [a.kind for a in attrs] + [DISCRETE]  # the label reads as a symbol
    numbers = [i for i, kind in enumerate(kinds) if kind == CONTINUOUS]
    symbols = [i for i, kind in enumerate(kinds) if kind == DISCRETE]
    text = np.dtype(f"S{_STR_WIDTH}")
    offset = {i: 8 * k for k, i in enumerate(numbers)}
    offset.update({i: 8 * len(numbers) + text.itemsize * k for k, i in enumerate(symbols)})
    itemsize = 8 * len(numbers) + text.itemsize * len(symbols)
    record = np.dtype({"names": [f"f{i}" for i in range(len(kinds))],
                       "formats": ["f8" if kind == CONTINUOUS else text for kind in kinds],
                       "offsets": [offset[i] for i in range(len(kinds))],
                       "itemsize": itemsize})
    packed = np.dtype({"names": ["numbers", "symbols"],
                       "formats": [("f8", (len(numbers),)), (text, (len(symbols),))],
                       "offsets": [0, 8 * len(numbers)], "itemsize": itemsize})
    return record, packed


def _codes(symbols: np.ndarray, index: dict, table: list) -> np.ndarray:
    """The codes in ``index`` of ``symbols``, a bytes column the C reader
    read, -1 where a field is no key's UTF-8 bytes. The column is searched
    in ``table``, the keys a field can equal and their codes, rebuilt when
    ``index`` has grown: a key of at most 8 bytes as one ``uint64`` word,
    which a field of at most 8 bytes (its other words zero) equals or not
    in one comparison, and a longer key as bytes. A key ending in NUL (the
    reader drops a field's trailing NULs) stays out, and so does one
    holding a lone surrogate, which has no UTF-8 bytes."""
    if not table or table[0] != len(index):
        held = [(s.encode(), c) for s, c in index.items()
                if not _undecoded(s) and not s.endswith("\0")]
        table[:] = (len(index),
                    _key_table([(s, c) for s, c in held if len(s) <= 8], "S8", np.uint64),
                    _key_table([(s, c) for s, c in held if len(s) > 8], "S"))
    _, short, long = table
    words = symbols[:, None].view(np.uint64)
    codes = _search(*short, words[:, 0])
    wide = np.flatnonzero(reduce(np.bitwise_or, words.T[1:]))
    if len(wide):
        codes[wide] = _search(*long, symbols[wide])
    return codes


def _key_table(pairs: list, dtype: str, view=None) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` of (key, code) as their keys, in ``dtype`` seen as
    ``view``, sorted, and the codes in the same order."""
    keys = np.array([s for s, _ in pairs], dtype=dtype)
    keys = keys if view is None else keys.view(view)
    order = np.argsort(keys, kind="stable")
    return keys[order], np.array([c for _, c in pairs], np.intp)[order]


def _search(keys: np.ndarray, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The code of each of ``values`` among the sorted ``keys``, -1 where
    it is no key."""
    if not len(keys):
        return np.full(len(values), -1, np.intp)
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return np.where(keys[at] == values, codes[at], -1)


def _reader_may_misread(text: str) -> bool:
    """Whether the C reader may misread ``text``: it holds an undecodable
    byte or a character of ``_READER_BLIND``."""
    return _undecoded(text) or any(c in text for c in _READER_BLIND)


def _undecoded(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate: a byte that did not decode
    as UTF-8 under ``surrogateescape``, or a str no file could hold."""
    return not text.isascii() and _SURROGATE.search(text) is not None


# -- dataset-level operations ------------------------------------------------


@dataclass
class ClassCounts:
    """Per-class unweighted and weighted totals, in schema class order."""

    classes: tuple[str, ...]
    counts: np.ndarray
    weighted: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())



def class_counts(dataset: WeightedDataset) -> ClassCounts:
    """Count examples and weight mass per class (uses current labels)."""
    k = dataset.schema.n_classes
    counts = np.bincount(dataset.labels, minlength=k).astype(np.int64)
    weighted = np.bincount(dataset.labels, weights=dataset.weights, minlength=k)
    return ClassCounts(dataset.schema.class_names, counts, weighted)


def project_attributes(dataset: WeightedDataset, kept: Iterable[str]) -> WeightedDataset:
    """Restrict a dataset to a subset of attributes.

    The new schema keeps the original attribute order; labels, weights and
    example count are untouched. Column arrays are shared, not copied.
    """
    kept_set = set(kept)
    if not kept_set:
        raise SchemaError("empty attribute selection")
    for name in kept_set:
        dataset.schema.attribute_index(name)  # raises on unknown names
    keep_idx = [i for i, a in enumerate(dataset.schema.attributes) if a.name in kept_set]
    new_schema = Schema(
        tuple(dataset.schema.attributes[i] for i in keep_idx),
        dataset.schema.class_names,
    )
    return dataset._derive(schema=new_schema, columns=[dataset.columns[i] for i in keep_idx],
                           rank_memo=[dataset.rank_memo[i] for i in keep_idx])


class Split(NamedTuple):
    """Train/test pair; unpacks as ``train, test``."""

    train: WeightedDataset
    test: WeightedDataset


def _draw(dataset: WeightedDataset, fraction: float, seed: int) -> np.ndarray:
    """The per-class draw of a split or a sample: its rows' mask."""
    rng = np.random.default_rng(seed)
    drawn = np.zeros(dataset.n, dtype=bool)
    for ci in range(dataset.schema.n_classes):
        rows = np.flatnonzero(dataset.labels == ci)
        if len(rows):
            drawn[rng.permutation(rows)[:int(round(len(rows) * fraction))]] = True
    if not drawn.any() or drawn.all():
        raise ValueError("split produced an empty part; adjust the fraction")
    return drawn


def stratified_split(dataset: WeightedDataset, test_fraction: float, seed: int) -> Split:
    """Deterministic per-class split preserving class proportions within
    one example. Weights are re-initialised to 1/n inside each part; file
    order is preserved within parts. A class with one example lands in
    one part, and is not rejected.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"degenerate test fraction {test_fraction!r}")
    test_mask = _draw(dataset, test_fraction, seed)
    train = dataset.take(np.flatnonzero(~test_mask)).with_uniform_weights()
    test = dataset.take(np.flatnonzero(test_mask)).with_uniform_weights()
    return Split(train, test)


def stratified_sample(dataset: WeightedDataset, fraction: float, seed: int) -> WeightedDataset:
    """Seeded per-class subsample (weights re-initialised to 1/n): the
    test part of ``stratified_split``, drawn without building the rest."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"degenerate sample fraction {fraction!r}")
    drawn = _draw(dataset, fraction, seed)
    return dataset.take(np.flatnonzero(drawn)).with_uniform_weights()


# -- schema / taxonomy files --------------------------------------------------


def parse_schema_text(text: str) -> Schema:
    """Parse the schema file format: a ``classes:`` header line followed by
    one ``name: kind`` line per attribute. ``#`` starts a comment."""
    classes: tuple[str, ...] | None = None
    attrs: list[AttributeSpec] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if classes is None:
            if not line.lower().startswith("classes:"):
                raise DataFormatError(
                    f"schema file must start with a 'classes:' header (line {ln})"
                )
            names = line.split(":", 1)[1].replace(",", " ").split()
            if not names:
                raise DataFormatError(f"empty class list in schema header (line {ln})")
            classes = tuple(names)
            continue
        if ":" not in line:
            raise DataFormatError(f"expected 'name: kind' at line {ln} of schema file")
        name, kind = (part.strip() for part in line.split(":", 1))
        if kind not in (DISCRETE, CONTINUOUS):
            raise DataFormatError(
                f"attribute {name!r}: kind must be 'discrete' or 'continuous' (line {ln})"
            )
        attrs.append(AttributeSpec(name, kind))
    if classes is None:
        raise DataFormatError("schema file is empty")
    if not attrs:
        raise DataFormatError("schema file declares no attributes")
    return Schema(tuple(attrs), classes)


def _parse_file(parse, path, what: str):
    """``parse`` of the text of a ``what`` file, its faults naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise DataFormatError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return parse(text)
    except (DataFormatError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_schema_file(path) -> Schema:
    return _parse_file(parse_schema_text, path, "schema")


def parse_taxonomy_text(text: str) -> dict[str, str]:
    """Parse ``raw_name class`` pairs, whitespace-separated, ``#`` comments,
    into the taxonomy: attack name -> class name, not empty."""
    mapping: dict[str, str] = {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError(
                f"expected 'raw_name class' at line {ln} of taxonomy file"
            )
        name, cls = parts
        if name in mapping and mapping[name] != cls:
            raise DataFormatError(f"conflicting mapping for {name!r} at line {ln}")
        mapping[name] = cls
    if not mapping:
        raise TaxonomyError("empty attack taxonomy")
    return mapping


def load_taxonomy_file(path) -> dict[str, str]:
    return _parse_file(parse_taxonomy_text, path, "taxonomy")
