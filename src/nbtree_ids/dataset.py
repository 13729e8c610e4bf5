"""KDD99-format record handling.

Connection records are comma-separated lines with one value per schema
attribute plus a trailing attack-name label (optionally period-terminated,
as in the published KDD99 files). Raw attack names are mapped to the five
traffic classes through an :class:`AttackTaxonomy`. Loading assigns every
example the uniform weight 1/n; everything downstream treats a loaded
dataset as immutable and derives new datasets instead of mutating.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DataFormatError,
    EmptyDatasetError,
    SchemaError,
    TaxonomyError,
)

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# lines per block: a line the C reader cannot read sends its block to the
# split-and-convert path, and the reader's str columns stay near 1 MB
_CHUNK_LINES = 1024
_STR_WIDTH = 32  # chars (bytes, in an ASCII block) the C reader keeps of a symbol or a label
_SURROGATE = re.compile("[\ud800-\udfff]")
# characters the C reader reads otherwise than the reference path: it drops
# a NUL from the end of a str field, and \x1c-\x1f around a number
_READER_BLIND = "\0\x1c\x1d\x1e\x1f"


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
        permissively extended domain still pairs with the same models)."""
        doc = {
            "attributes": [[a.name, a.kind] for a in self.attributes],
            "classes": list(self.class_names),
        }
        raw = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    def with_domains(self, domains: dict[str, tuple[str, ...]]) -> "Schema":
        attrs = tuple(
            AttributeSpec(a.name, a.kind, domains.get(a.name, a.domain))
            for a in self.attributes
        )
        return Schema(attrs, self.class_names)


class AttackTaxonomy:
    """Total mapping from raw attack name to class label.

    ``normal`` is conventionally reserved for the Normal class. Lookups of
    unmapped names raise :class:`TaxonomyError` naming the unknown symbol.
    """

    def __init__(self, mapping: dict[str, str]):
        if not mapping:
            raise TaxonomyError("empty attack taxonomy")
        self.mapping = dict(mapping)

    def class_of(self, raw_name: str) -> str:
        try:
            return self.mapping[raw_name]
        except KeyError:
            raise TaxonomyError(f"unknown attack name {raw_name!r}") from None


@dataclass
class Example:
    """A single record: one value per schema attribute, a class label, the
    raw attack name it came from, and a non-negative weight.

    ``parse_record`` leaves the weight at 0; ``load_dataset`` assigns 1/n.
    """

    values: tuple
    label: str
    raw_label: str
    weight: float = 0.0


@dataclass
class LoadReport:
    """What happened while ingesting a record stream."""

    n_loaded: int = 0
    skipped: int = 0
    skipped_lines: list[int] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)
    extended_domains: dict[str, list[str]] = field(default_factory=dict)
    reader_lines: int = 0  # lines of blocks the C reader read
    fallback_lines: int = 0  # lines of blocks it raised on, split and converted
    seconds: float = 0.0

    def note_skip(self, line_number: int, reason: str) -> None:
        self.skipped += 1
        if len(self.skipped_lines) < 100:
            self.skipped_lines.append(line_number)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class WeightedDataset:
    """Columnar store of weighted examples sharing one schema.

    Discrete columns hold int32 codes into the attribute domain, continuous
    columns hold float64 values. ``labels`` are class indices in schema
    order; ``true_labels`` preserve the labels assigned at load time even
    when a downstream step relabels the working copy. ``raw_labels``, when
    known, is an object array of the raw attack names. ``load_report``
    describes the load a dataset came from; samples, splits and
    projections keep it. A derived dataset shares every array it does not
    replace with its parent, and nothing writes into these arrays.
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
        raw_labels: Sequence[str] | None = None,
        true_labels: np.ndarray | None = None,
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
        self.raw_labels = None if raw_labels is None else np.asarray(raw_labels, dtype=object)
        self.true_labels = self.labels if true_labels is None else np.asarray(true_labels, np.int64)
        self.source = source
        self.load_report = load_report
        self.rank_memo = [[] for _ in columns] if rank_memo is None else rank_memo

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Sequence[Sequence],
        labels: Sequence[str],
        weights: Sequence[float] | None = None,
        source: str | None = None,
    ) -> "WeightedDataset":
        """Build a dataset from in-memory value rows (mainly for tests and
        synthetic data). Discrete values must already be in the domain and
        continuous ones finite."""
        if len(rows) != len(labels):
            raise SchemaError("rows and labels differ in length")
        n = len(rows)
        if n == 0:
            raise EmptyDatasetError("no rows given")
        cols: list[np.ndarray] = []
        for j, spec in enumerate(schema.attributes):
            raw = [r[j] for r in rows]
            if spec.is_discrete:
                index = {s: i for i, s in enumerate(spec.domain)}
                try:
                    cols.append(np.array([index[str(v)] for v in raw], dtype=np.int32))
                except KeyError as exc:
                    raise SchemaError(
                        f"value {exc.args[0]!r} outside domain of {spec.name!r}"
                    ) from None
            else:
                col = np.asarray(raw, dtype=np.float64)
                bad = np.flatnonzero(~np.isfinite(col))
                if bad.size:
                    raise SchemaError(f"non-finite value {col[bad[0]]} of {spec.name!r} "
                                      f"in row {int(bad[0])}")
                cols.append(col)
        lab = np.array([schema.class_index(c) for c in labels], dtype=np.int64)
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=np.float64)
        return cls(schema, cols, lab, w, raw_labels=list(labels), source=source)

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
        raw = self.raw_labels[i] if self.raw_labels is not None else self.schema.class_names[self.labels[i]]
        return Example(tuple(values), self.schema.class_names[self.labels[i]], raw, float(self.weights[i]))

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
            raw_labels=self.raw_labels[rows] if self.raw_labels is not None else None,
            true_labels=self.true_labels[rows],
            rank_memo=None,
        )

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        return self._derive(weights=np.asarray(weights, dtype=np.float64))

    def with_labels(self, labels: np.ndarray) -> "WeightedDataset":
        return self._derive(labels=np.asarray(labels, dtype=np.int64))

    def with_uniform_weights(self) -> "WeightedDataset":
        return self.with_weights(np.full(self.n, 1.0 / self.n))

    def with_true_labels(self) -> "WeightedDataset":
        return self.with_labels(self.true_labels)


# -- record parsing ---------------------------------------------------------


def parse_record(
    line: str,
    schema: Schema,
    taxonomy: AttackTaxonomy,
    *,
    permissive: bool = False,
    line_number: int | None = None,
) -> Example:
    """Parse one comma-separated record into an :class:`Example`.

    The line must carry exactly one field per attribute plus the label; the
    label may end with a period. In permissive mode discrete values outside
    a non-empty domain are accepted rather than rejected (the load loop
    extends the domain); numbers and arity are never forgiven. A line that
    holds a lone surrogate (a byte that did not decode as UTF-8) is
    rejected as ``bad-encoding``.
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
    raw_label = fields[-1].rstrip(".")
    try:
        label = taxonomy.class_of(raw_label)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{exc}{where}", reason="unknown-attack") from None
    if label not in schema.class_names:
        raise TaxonomyError(
            f"taxonomy maps {raw_label!r} to unknown class {label!r}{where}",
            reason="unknown-class",
        )
    return Example(tuple(values), label, raw_label, 0.0)


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


def _iter_lines(source) -> Iterator[str]:
    if not isinstance(source, (str, Path)):
        yield from source
        return
    try:
        # undecodable bytes become lone surrogates, which parse_record rejects
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            yield from fh
    except OSError as exc:
        raise DataFormatError(f"cannot read record file {source}: {exc}") from None


def load_dataset(
    source,
    schema: Schema,
    taxonomy: AttackTaxonomy,
    *,
    permissive: bool = False,
) -> WeightedDataset:
    """Ingest a record stream and return a uniformly weighted dataset: the
    one batch of :func:`read_batches`, whose report is ``load_report``."""
    (dataset,) = read_batches(source, schema, taxonomy, LoadReport(), permissive=permissive)
    return dataset


def read_batches(source, schema: Schema, taxonomy: AttackTaxonomy, report: LoadReport, *,
                 permissive: bool = False, rows: float = math.inf) -> Iterator[WeightedDataset]:
    """Read a record stream (a path or any iterable of lines) in file order
    as uniformly weighted batches of ``rows`` examples or more, the last
    maybe fewer, each on the symbol domains read so far (codes only grow).
    ``report`` counts the whole stream; its ``seconds`` leave out the time
    a batch is held.

    Lines are read in blocks of ``_CHUNK_LINES``. numpy's C reader parses
    each block against the full record dtype, with the symbols and the
    label as bytes when the block's text is ASCII and as str otherwise; a
    block it raises on (a wrong field count, or a number it cannot read)
    is split and converted in Python instead. Each symbol column and the
    label is coded by binary search in a sorted table of its dict's keys,
    or by ``dict.get`` for a split block; -1 marks a field that is no key.
    One verdict then flags each row that
    :func:`parse_record` might judge otherwise: a wrong field count, a
    non-finite number, a label with no class, in strict mode a symbol
    outside its non-empty domain, a symbol as wide as the reader's str
    width (it may have been cut), or a line holding an undecodable byte or
    a character of ``_READER_BLIND``. Only flagged lines go to
    :func:`parse_record`, whose verdict alone counts; a line it keeps
    overwrites its own row. Only its symbols and those the lookup missed
    are coded through the dicts, which grow in order of first appearance.

    In strict mode (default) the first bad record aborts the stream with
    that error; in permissive mode bad records are skipped and counted by
    reason in ``report``. A stream that keeps no record raises
    ``EmptyDatasetError`` with those counts. When ``source`` is a path,
    both errors begin with it. Unseen discrete values of kept records
    extend the attribute domain in permissive mode, and define it in
    either mode when the schema domain is empty.
    """
    start = time.perf_counter()
    attrs = schema.attributes
    expected = len(attrs) + 1
    cont_idx = [j for j, a in enumerate(attrs) if not a.is_discrete]
    disc_idx = [j for j, a in enumerate(attrs) if a.is_discrete]
    # per discrete attribute: symbol -> code, insertion-ordered
    sym_index = {j: {s: i for i, s in enumerate(attrs[j].domain)} for j in disc_idx}
    checked = [j for j in disc_idx if attrs[j].domain and not permissive]
    # label field, with or without its period -> index into `names`
    names = [r for r, c in taxonomy.mapping.items()
             if c in schema.class_names and not r.endswith(".")]
    name_code = {r + end: k for k, r in enumerate(names) for end in ("", ".")}
    # one output per attribute, then the label codes; each chunk's kept rows
    # are copied in and the outputs grow in place, so no per-chunk copies
    # pile up on the heap to be freed (and kept resident) at the end
    out = [np.empty(0, np.int32 if a.is_discrete else np.float64) for a in attrs]
    out.append(np.empty(0, np.intp))
    n = 0
    wrong_count = ["0"] * expected  # stands in for a line of the wrong arity
    indexes = {**sym_index, -1: name_code}  # the symbol columns, then the label
    tables = {j: {} for j in indexes}  # their key tables, kept by `_codes`
    dtypes = {kind: _reader_dtypes(attrs, kind) for kind in "SU"}
    src = str(source) if isinstance(source, (str, Path)) else None
    at = f"{src}: " if src else ""

    def read(texts: list[str], joined: str):
        """The block's numbers (one row per continuous attribute), its symbol
        columns and labels by column (the label as -1), and the rows the
        reader may have misread: a wrong field count, or a symbol the C
        reader may have cut to its str width. The C reader reads a symbol
        as bytes when the block's text is ASCII, else as str; a block it
        raises on gives lists of str."""
        m = len(texts)
        record, packed = dtypes["S" if joined.isascii() else "U"]
        try:
            block = np.loadtxt(texts, delimiter=",", comments=None, ndmin=1, dtype=record)
        except ValueError:  # a wrong field count or a number the C reader cannot read
            report.fallback_lines += m
            rows = [f if len(f) == expected else wrong_count
                    for f in (text.rstrip("\r\n").split(",") for text in texts)]
            cols = list(zip(*rows))
            numbers = np.array([_floats(cols[j]) for j in cont_idx]).reshape(-1, m)
            arity = np.fromiter((f is wrong_count for f in rows), bool, m)
            return numbers, {j: list(cols[j]) for j in indexes}, arity
        report.reader_lines += m
        block = block.view(packed)
        symbols = block["symbols"]
        # a field may have been cut when its last byte or code point is not NUL
        last = symbols.view(np.uint8 if symbols.dtype.kind == "S" else np.uint32)
        cut = last[:, _STR_WIDTH - 1::_STR_WIDTH].any(axis=1)
        return block["numbers"].T, dict(zip(indexes, symbols.T)), cut

    def flush(chunk: list[tuple[int, str]]) -> None:
        nonlocal n
        texts = [text for _, text in chunk]
        joined = "".join(texts)
        m = len(texts)
        numbers, symbols, flagged = read(texts, joined)
        codes = {j: _codes(symbols[j], index, tables[j]) for j, index in indexes.items()}
        # the verdict: every row parse_record might judge otherwise than read
        flagged |= ~np.isfinite(numbers).all(axis=0)
        for j in (*checked, -1):
            flagged |= codes[j] < 0
        if _reader_may_misread(joined):
            flagged |= np.fromiter(map(_reader_may_misread, texts), bool, m)
        keep = np.ones(m, dtype=bool)
        kept_values = {}  # row -> values of a flagged line parse_record keeps
        for i in np.flatnonzero(flagged).tolist():
            ln = chunk[i][0]
            try:
                ex = parse_record(texts[i], schema, taxonomy, permissive=permissive, line_number=ln)
            except DataFormatError as exc:
                if not permissive:
                    raise type(exc)(f"{at}{exc}", reason=exc.reason) from None
                report.note_skip(ln, exc.reason)
                keep[i] = False
                continue
            numbers[:, i] = [ex.values[j] for j in cont_idx]
            kept_values[i] = ex.values
            codes[-1][i] = name_code[ex.raw_label]
        # a kept row the lookup missed or parse_record decided is coded by
        # its symbol dict, which grows in first-appearance order
        for j in disc_idx:
            index, code, read_symbols = sym_index[j], codes[j], symbols[j]
            added = []
            for i in np.flatnonzero(keep & (flagged | (code < 0))).tolist():
                s = kept_values[i][j] if i in kept_values else read_symbols[i]
                s = s.decode() if isinstance(s, bytes) else str(s)  # an S field holds ASCII
                if s not in index:
                    index[s] = len(index)
                    added.append(s)
                code[i] = index[s]
            if added and attrs[j].domain:
                report.extended_domains.setdefault(attrs[j].name, []).extend(added)
        if not keep.all():
            numbers = numbers[:, keep]
            codes = {j: code[keep] for j, code in codes.items()}
        n_kept = len(codes[-1])
        if n + n_kept > len(out[-1]):
            for arr in out:  # no views of `out` outlive a statement
                arr.resize(max(2 * len(arr), n + n_kept), refcheck=False)
        new = slice(n, n + n_kept)
        for j, row in zip(cont_idx, numbers):
            out[j][new] = row
        for j, code in codes.items():
            out[j][new] = code
        n += n_kept

    name_class = np.array([schema.class_index(taxonomy.mapping[r]) for r in names], dtype=np.int64)

    def take_batch() -> WeightedDataset:
        """The rows copied in so far, as a batch; the outputs start anew."""
        nonlocal n
        for arr in out:
            arr.resize(n, refcheck=False)
        *columns, codes = out
        batch = WeightedDataset(
            schema.with_domains({attrs[j].name: tuple(sym_index[j]) for j in disc_idx}),
            columns, name_class[codes], np.full(n, 1.0 / n),
            raw_labels=np.array(names, dtype=object)[codes], source=src, load_report=report)
        out[:] = [np.empty(0, arr.dtype) for arr in out]
        report.n_loaded, n = report.n_loaded + n, 0
        report.seconds += time.perf_counter() - start
        return batch

    numbered = enumerate(_iter_lines(source), start=1)
    while lines := list(islice(numbered, _CHUNK_LINES)):
        chunk = [(ln, text) for ln, text in lines if text.strip()]
        if chunk:
            flush(chunk)
        if n >= rows:
            yield take_batch()
            start = time.perf_counter()
    if n:
        yield take_batch()
    if report.n_loaded == 0:
        skips = ", ".join(f"{reason} {count}" for reason, count in report.reasons.items())
        raise EmptyDatasetError(f"{at}record source yielded no usable examples"
                                + (f" (skipped: {skips})" if skips else ""))


def _reader_dtypes(attrs: Sequence[AttributeSpec], kind: str) -> tuple[np.dtype, np.dtype]:
    """The C reader's record dtype, one field per record field in line
    order, with the symbols and the label as ``kind`` (``S``, bytes, or
    ``U``, str) ``_STR_WIDTH`` wide; and a view of the same bytes as one
    ``numbers`` row and one ``symbols`` row: the numbers are packed first,
    then the symbols and the label."""
    kinds = [a.kind for a in attrs] + [DISCRETE]  # the label reads as a symbol
    numbers = [i for i, kind in enumerate(kinds) if kind == CONTINUOUS]
    symbols = [i for i, kind in enumerate(kinds) if kind == DISCRETE]
    text = np.dtype(f"{kind}{_STR_WIDTH}")
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


def _codes(symbols, index: dict, tables: dict) -> np.ndarray:
    """The codes of ``symbols`` in ``index``, -1 where a symbol is no key.
    A list of str is coded by ``dict.get``. A column the C reader read is
    searched in a sorted table of the keys a field of its dtype can equal,
    kept in ``tables`` under its dtype kind and rebuilt when ``index`` has
    grown: a key ending in NUL stays out (the reader drops a field's
    trailing NULs), and so does a non-ASCII key from a bytes table."""
    if isinstance(symbols, list):
        return np.fromiter(map(index.get, symbols, repeat(-1)), np.intp, len(symbols))
    kind = symbols.dtype.kind
    if kind not in tables or tables[kind][0] != len(index):
        held = {s: c for s, c in index.items()
                if not s.endswith("\0") and (kind == "U" or s.isascii())}
        keys, codes = np.array(list(held), dtype=kind), np.array(list(held.values()), np.intp)
        order = np.argsort(keys, kind="stable")
        tables[kind] = len(index), keys[order], codes[order]
    _, keys, codes = tables[kind]
    if not len(keys):
        return np.full(len(symbols), -1, np.intp)
    at = np.minimum(np.searchsorted(keys, symbols), len(keys) - 1)
    return np.where(keys[at] == symbols, codes[at], -1)


def _reader_may_misread(text: str) -> bool:
    """Whether the C reader may misread ``text``: it holds an undecodable
    byte or a character of ``_READER_BLIND``."""
    return _undecoded(text) or any(c in text for c in _READER_BLIND)


def _undecoded(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate: a byte that did not decode
    as UTF-8 under ``surrogateescape``, or a str no file could hold."""
    return not text.isascii() and _SURROGATE.search(text) is not None


def _floats(column: Sequence[str]) -> np.ndarray:
    """A text column as float64; a field that does not parse reads nan."""
    try:
        return np.asarray(column, dtype=np.float64)
    except ValueError:
        out = np.empty(len(column))
        for i, raw in enumerate(column):
            try:
                out[i] = float(raw)
            except ValueError:
                out[i] = np.nan
        return out


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
    for ln, raw in enumerate(text.splitlines(), start=1):
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


def parse_taxonomy_text(text: str) -> AttackTaxonomy:
    """Parse ``raw_name class`` pairs, whitespace-separated, ``#`` comments."""
    mapping: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
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
    return AttackTaxonomy(mapping)


def load_taxonomy_file(path) -> AttackTaxonomy:
    return _parse_file(parse_taxonomy_text, path, "taxonomy")
