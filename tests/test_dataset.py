import errno
import os
import pickle
import re
import signal
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import synth
from nbtree_ids import dataset as dataset_module
from nbtree_ids.dataset import (
    AttackTaxonomy,
    AttributeSpec,
    Example,
    LoadReport,
    Schema,
    WeightedDataset,
    class_counts,
    load_dataset,
    load_schema_file,
    load_taxonomy_file,
    parse_record,
    parse_schema_text,
    parse_taxonomy_text,
    project_attributes,
    map_batches,
    stratified_sample,
    stratified_split,
)
from nbtree_ids.exceptions import (
    DataFormatError,
    EmptyDatasetError,
    SchemaError,
    TaxonomyError,
)
from nbtree_ids.kdd99 import kdd99_schema, kdd99_taxonomy

# first record of the published 10% training file
FIRST_KDD_RECORD = (
    "0,tcp,http,SF,181,5450,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,8,8,0.00,0.00,"
    "0.00,0.00,1.00,0.00,0.00,9,9,1.00,0.00,0.11,0.00,0.00,0.00,0.00,0.00,normal."
)


def toy_schema():
    return Schema(
        (
            AttributeSpec("color", "discrete", ("red", "green", "blue")),
            AttributeSpec("size", "continuous"),
        ),
        ("A", "B"),
    )


def toy_taxonomy():
    return parse_taxonomy_text("normal A\nattack B\n")


def toy_lines(n_a=2, n_b=2):
    lines = []
    for i in range(n_a):
        lines.append(f"red,{i + 1}.5,normal.")
    for i in range(n_b):
        lines.append(f"blue,{i + 10},attack.")
    return lines


# -- parse_record ---------------------------------------------------------------


def test_parse_first_published_record():
    ex = parse_record(FIRST_KDD_RECORD, kdd99_schema(), kdd99_taxonomy())
    assert ex.label == "Normal"
    assert ex.raw_label == "normal"
    assert len(ex.values) == 41
    assert ex.values[4] == 181.0
    assert ex.values[2] == "http"
    assert ex.weight == 0.0


def test_parse_rejects_wrong_arity():
    line = ",".join(FIRST_KDD_RECORD.split(",")[:-1])  # label dropped
    with pytest.raises(DataFormatError, match="42 fields"):
        parse_record(line, kdd99_schema(), kdd99_taxonomy())


def test_parse_maps_trailing_period_attack_names():
    line = FIRST_KDD_RECORD.replace("normal.", "neptune.")
    assert parse_record(line, kdd99_schema(), kdd99_taxonomy()).label == "DoS"


def test_parse_rejects_bad_number():
    with pytest.raises(DataFormatError, match="unparseable"):
        parse_record("red,abc,normal.", toy_schema(), toy_taxonomy())
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(DataFormatError, match="non-finite.*line 7"):
            parse_record(f"red,{raw},normal.", toy_schema(), toy_taxonomy(), line_number=7)


def test_parse_unknown_attack_names_symbol():
    with pytest.raises(TaxonomyError, match="warp_drive"):
        parse_record("red,1.0,warp_drive.", toy_schema(), toy_taxonomy())


def test_parse_domain_violation_strict_vs_permissive():
    with pytest.raises(DataFormatError, match="domain"):
        parse_record("purple,1.0,normal.", toy_schema(), toy_taxonomy())
    ex = parse_record("purple,1.0,normal.", toy_schema(), toy_taxonomy(), permissive=True)
    assert ex.values[0] == "purple"


# -- load_dataset -----------------------------------------------------------------


def test_load_assigns_uniform_weights():
    ds = load_dataset(toy_lines(), toy_schema(), toy_taxonomy())
    assert ds.n == 4
    np.testing.assert_allclose(ds.weights, 0.25)
    assert abs(ds.total_weight - 1.0) < 1e-9


def test_load_preserves_order():
    ds = load_dataset(toy_lines(), toy_schema(), toy_taxonomy())
    assert [ds.example(i).label for i in range(ds.n)] == ["A", "A", "B", "B"]
    assert ds.example(2).values[0] == "blue"


def test_load_empty_source_errors():
    with pytest.raises(EmptyDatasetError):
        load_dataset([], toy_schema(), toy_taxonomy())
    with pytest.raises(EmptyDatasetError):
        load_dataset(["", "   "], toy_schema(), toy_taxonomy())


def test_load_strict_aborts_on_bad_record():
    for raw in ("not_a_number", "nan", "inf", "-inf"):
        lines = toy_lines() + [f"red,{raw},normal."]
        with pytest.raises(DataFormatError, match="line 5"):
            load_dataset(lines, toy_schema(), toy_taxonomy())


def test_load_permissive_skips_and_counts():
    for raw in ("not_a_number", "nan", "inf", "-inf"):
        lines = toy_lines() + [f"red,{raw},normal."]
        ds = load_dataset(lines, toy_schema(), toy_taxonomy(), permissive=True)
        assert ds.n == 4
        assert ds.load_report.skipped == 1
        assert ds.load_report.skipped_lines == [5]
        assert ds.load_report.reasons == {"bad-number": 1}
        np.testing.assert_allclose(ds.weights, 0.25)
    lines = toy_lines() + ["red,1,warp.", "red,abc,normal.", "red,1", "red,2,warp."]
    report = load_dataset(lines, toy_schema(), toy_taxonomy(), permissive=True).load_report
    assert report.skipped_lines == [5, 6, 7, 8]  # file order, not grouped by kind
    assert report.reasons == {"unknown-attack": 2, "bad-number": 1, "field-count": 1}


def test_load_strict_raises_parse_record_error_for_first_bad_line():
    schema, taxonomy = toy_schema(), toy_taxonomy()
    for first_bad in ("red,1,warp.", "purple,1,normal."):
        lines = ["red,1.5,normal.", first_bad, "red,abc,normal."]
        with pytest.raises(DataFormatError) as expected:
            parse_record(first_bad, schema, taxonomy, line_number=2)
        with pytest.raises(DataFormatError) as got:
            load_dataset(lines, schema, taxonomy)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert "line 2" in str(got.value)


def test_load_permissive_skipped_lines_leave_domains():
    lines = toy_lines() + ["purple,abc,normal.", "pink,2,warp."]
    ds = load_dataset(lines, toy_schema(), toy_taxonomy(), permissive=True)
    assert ds.load_report.skipped == 2
    assert ds.schema.attributes[0].domain == ("red", "green", "blue")
    assert ds.load_report.extended_domains == {}


def test_load_permissive_extends_domain():
    lines = toy_lines() + ["purple,2.0,normal."]
    ds = load_dataset(lines, toy_schema(), toy_taxonomy(), permissive=True)
    assert "purple" in ds.schema.attributes[0].domain
    assert ds.load_report.extended_domains == {"color": ["purple"]}
    with pytest.raises(DataFormatError, match="purple"):
        load_dataset(lines, toy_schema(), toy_taxonomy())


def test_load_fills_empty_domains_in_strict_mode():
    schema = Schema(
        (AttributeSpec("color", "discrete"), AttributeSpec("size", "continuous")),
        ("A", "B"),
    )
    ds = load_dataset(toy_lines(), schema, toy_taxonomy())
    assert ds.schema.attributes[0].domain == ("red", "blue")


def test_clean_kdd_corpus_is_decided_wholly_by_the_c_reader(tmp_path):
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    report = load_dataset(path, kdd99_schema(), kdd99_taxonomy()).load_report
    assert report.n_loaded == report.reader_lines == n_lines
    assert report.fallback_lines == 0
    assert report.seconds > 0


def test_unknown_attack_line_leaves_its_block_to_the_c_reader(tmp_path):
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[100] = lines[100].rsplit(",", 1)[0] + ",warp.\n"
    path.write_text("".join(lines), encoding="utf-8")
    report = load_dataset(path, kdd99_schema(), kdd99_taxonomy(), permissive=True).load_report
    assert report.skipped == 1
    assert report.fallback_lines == 0
    assert report.reader_lines == sum(1 for line in lines if line.strip())


def test_load_undecodable_line_is_a_bad_record(tmp_path):
    path = tmp_path / "records.csv"
    lines = [line.encode() for line in toy_lines()]
    lines[2] = b"bl\xe9ue,1,normal."
    path.write_bytes(b"\n".join(lines + [b"red,1"]) + b"\n")
    with pytest.raises(DataFormatError, match="not valid UTF-8 at line 3$") as strict:
        load_dataset(path, toy_schema(), toy_taxonomy())
    assert strict.value.reason == "bad-encoding"
    report = load_dataset(path, toy_schema(), toy_taxonomy(), permissive=True).load_report
    assert report.skipped_lines == [3, 5]
    assert report.reasons == {"bad-encoding": 1, "field-count": 1}


def test_load_missing_file_is_a_data_format_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read record file"):
        load_dataset(tmp_path / "missing.csv", toy_schema(), toy_taxonomy())


def test_bulk_load_matches_per_record_parse():
    schema, taxonomy = toy_schema(), toy_taxonomy()
    lines = toy_lines(5, 7) + ["green,-3.5,attack."]
    ds = load_dataset(lines, schema, taxonomy)
    for i, line in enumerate(lines):
        ex = parse_record(line, schema, taxonomy)
        got = ds.example(i)
        assert got.values == ex.values
        assert got.label == ex.label


def property_schema():
    return Schema(
        (
            AttributeSpec("color", "discrete", ("red", "green", "blue")),
            AttributeSpec("size", "continuous"),
            AttributeSpec("proto", "discrete"),  # domain defined by the load
            AttributeSpec("rate", "continuous"),
        ),
        ("A", "B"),
    )


# an attack name as wide as the C reader's str field: a longer label cut to
# that width would read as this name
LONG_NAME = "long_attack_" + "x" * (dataset_module._STR_WIDTH - len("long_attack_"))


def property_taxonomy():
    # Z is no schema class
    return parse_taxonomy_text(f"normal A\nattack B\nodd Z\n{LONG_NAME} B\n")


GOOD_FIELDS = st.tuples(
    st.sampled_from(["red", "green", "blue"]),
    st.sampled_from(["0", "1.5", "-2", "1e3", "7"]),
    st.sampled_from(["tcp", "udp", "icmp"]),
    st.sampled_from(["0.25", "1", "0"]),
    st.sampled_from(["normal.", "attack.", "normal", "attack", "normal.."]),
)
BAD_EDITS = {
    "good": lambda f: f,
    "extra-field": lambda f: f + ["x"],
    "missing-field": lambda f: f[1:],
    "bad-number": lambda f: f[:1] + ["abc"] + f[2:],
    "nan": lambda f: f[:3] + ["nan"] + f[4:],
    "inf": lambda f: f[:1] + ["inf"] + f[2:],
    "-inf": lambda f: f[:3] + ["-inf"] + f[4:],
    "empty-number": lambda f: f[:3] + [""] + f[4:],
    "unknown-attack": lambda f: f[:4] + ["warp."],
    "unknown-class": lambda f: f[:4] + ["odd."],
    "unseen-symbol": lambda f: ["purple"] + f[1:],
    "new-proto": lambda f: f[:2] + ["sctp"] + f[3:],
    "blank": lambda f: None,
    "long-symbol": lambda f: f[:2] + ["tcp" * 12] + f[3:],
    "long-color": lambda f: ["purple" * 6] + f[1:],
    "long-label": lambda f: f[:4] + [LONG_NAME + "."],
    "long-label-cut": lambda f: f[:4] + [LONG_NAME + "x."],
    "padded-symbols": lambda f: [" " + f[0]] + f[1:2] + [f[2] + " "] + f[3:],
    "padded-numbers": lambda f: f[:1] + [f" {f[1]}\t"] + f[2:3] + [f"\t{f[3]} "] + f[4:],
    "python-only-numbers": lambda f: f[:1] + ["1_000"] + f[2:3] + ["\u0661"] + f[4:],
    "exact-numbers": lambda f: f[:1] + ["0.30000000000000004"] + f[2:3]
    + ["4.9406564584124654e-324"] + f[4:],
    "subnormal": lambda f: f[:1] + ["2.2250738585072009e-308"] + f[2:],
    "crlf": lambda f: f[:4] + [f[4] + "\r\n"],
    "undecodable": lambda f: f[:2] + ["tc\udce9p"] + f[3:],
    "nul-symbol": lambda f: f[:2] + [f[2] + "\0"] + f[3:],
    "separator-padded-number": lambda f: f[:1] + ["\x1c" + f[1]] + f[2:],
}
LINES = st.lists(
    st.tuples(GOOD_FIELDS, st.sampled_from(sorted(BAD_EDITS))), min_size=1, max_size=40
).map(lambda drawn: [
    "   " if (f := BAD_EDITS[kind](list(fields))) is None else ",".join(f)
    for fields, kind in drawn
])


def reference_load(lines, schema, taxonomy, permissive):
    """Loop over ``parse_record``: the kept examples, the skipped line
    numbers with their reasons, and the domains the kept examples give.
    Raises the error a strict load must raise, or the empty-load error with
    the skip counts by reason."""
    kept, skipped = [], []
    domains = {a.name: list(a.domain) for a in schema.attributes if a.is_discrete}
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            ex = parse_record(line, schema, taxonomy, permissive=permissive, line_number=ln)
        except DataFormatError as exc:
            if not permissive:
                raise
            skipped.append((ln, exc.reason))
            continue
        kept.append(ex)
        for spec, v in zip(schema.attributes, ex.values):
            if spec.is_discrete and v not in domains[spec.name]:
                domains[spec.name].append(v)
    if not kept:
        skips = ", ".join(f"{reason} {count}"
                          for reason, count in Counter(reason for _, reason in skipped).items())
        raise EmptyDatasetError("record source yielded no usable examples"
                                + (f" (skipped: {skips})" if skips else ""))
    return kept, skipped, domains


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=LINES, chunk=st.integers(1, 7), permissive=st.booleans())
def test_load_matches_parse_record_loop(lines, chunk, permissive):
    schema, taxonomy = property_schema(), property_taxonomy()
    try:
        kept, skipped, domains = reference_load(lines, schema, taxonomy, permissive)
    except DataFormatError as exc:
        expected = exc
    else:
        expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "_CHUNK_LINES", chunk)
        if expected is not None:
            with pytest.raises(DataFormatError) as got:
                load_dataset(lines, schema, taxonomy, permissive=permissive)
            assert type(got.value) is type(expected)
            assert str(got.value) == str(expected)
            return
        ds = load_dataset(lines, schema, taxonomy, permissive=permissive)
    assert [ds.example(i) for i in range(ds.n)] == [
        Example(ex.values, ex.label, ex.label, 1.0 / len(kept)) for ex in kept
    ]
    assert {a.name: list(a.domain) for a in ds.schema.attributes if a.is_discrete} == domains
    report = ds.load_report
    assert report.skipped_lines == [ln for ln, _ in skipped]
    reasons: dict[str, int] = {}
    for _, reason in skipped:
        reasons[reason] = reasons.get(reason, 0) + 1
    assert report.reasons == reasons
    extended = {"color": domains["color"][3:]} if len(domains["color"]) > 3 else {}
    assert report.extended_domains == extended
    assert report.reader_lines + report.fallback_lines == sum(1 for line in lines if line.strip())


# a KDD attack name wider than the C reader's str field; it and the name
# the reader would cut it to map to two classes
KDD_LONG_NAME = "long_attack_" + "x" * dataset_module._STR_WIDTH
KDD_LONG_NAMES = {KDD_LONG_NAME: "DoS", KDD_LONG_NAME[:dataset_module._STR_WIDTH]: "Probe"}
KDD_EDITS = {
    "field-count": lambda f: f[:5] + f[6:],
    "unparseable-number": lambda f: f[:4] + [f[4] + "?"] + f[5:],
    "nan": lambda f: f[:22] + ["nan"] + f[23:],
    "unknown-attack": lambda f: f[:-1] + ["warp."],
    "long-label": lambda f: f[:-1] + [KDD_LONG_NAME + "."],
    "undecodable": lambda f: f[:2] + [f[2] + "\udce9"] + f[3:],  # the byte 0xe9
}
# the edits of each block; blocks 2 and 3 hold lines the C reader raises on
KDD_EDITED_BLOCKS = {
    0: ["nan", "unknown-attack", "long-label", "undecodable"],
    2: ["field-count", "unparseable-number", "nan", "long-label"],
    3: ["unknown-attack", "undecodable", "field-count"],
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kdd_load_matches_parse_record_loop(tmp_path, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    block = dataset_module._CHUNK_LINES
    for b, kinds in KDD_EDITED_BLOCKS.items():
        rows = rng.choice(np.arange(b * block, (b + 1) * block), len(kinds), replace=False)
        for i, kind in zip(rows, kinds):
            lines[i] = ",".join(KDD_EDITS[kind](lines[i].rstrip("\n").split(","))) + "\n"
    path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
    schema = kdd99_schema()
    taxonomy = AttackTaxonomy({**kdd99_taxonomy().mapping, **KDD_LONG_NAMES})

    with pytest.raises(DataFormatError) as expected:
        reference_load(lines, schema, taxonomy, permissive=False)
    with pytest.raises(DataFormatError) as got:
        load_dataset(path, schema, taxonomy)
    assert type(got.value) is type(expected.value)
    # a load of a path puts the path in front of a record's fault
    assert str(got.value) == f"{path}: {expected.value}"

    kept, skipped, domains = reference_load(lines, schema, taxonomy, permissive=True)
    ds = load_dataset(path, schema, taxonomy, permissive=True)
    assert [ds.example(i) for i in range(ds.n)] == [
        Example(ex.values, ex.label, ex.label, 1.0 / len(kept)) for ex in kept
    ]
    assert {a.name: list(a.domain) for a in ds.schema.attributes if a.is_discrete} == domains
    report = ds.load_report
    assert report.skipped_lines == [ln for ln, _ in skipped]
    assert report.reasons == Counter(reason for _, reason in skipped)
    assert len(skipped) == 9  # every edit but the two long labels
    assert report.extended_domains == {}
    # block 0 holds an undecodable byte, so it is no ASCII block
    assert report.fallback_lines == 3 * block
    assert report.reader_lines == len(lines) - 3 * block


# symbols next to each other in sort order or prefixes of one another; of 8
# bytes (one word of the reader's field) and 9, and one whose first word is
# an 8-byte symbol's with a NUL at byte 8; one as wide as the reader's symbol
# field, a latin-1 one, one above U+00FF, and one ending in NUL, which the
# reader reads as "tcp"
LOOKUP_SYMBOLS = ["a", "a ", "ab", "b", "tc", "tcp", "tcpa", "tcp_data", "tcp_data1",
                  "tcp_data\0x", "s" * dataset_module._STR_WIDTH, "é", "中", "tcp\0"]
LOOKUP_DOMAIN = ("tcp", "a", "é", "tcp_data", "tcp_data1", "s" * dataset_module._STR_WIDTH)
# the label table's neighbours: "norma", "normal " and "buffer_overfl" are
# no attack names; "buffer_overflow" is longer than a word
LOOKUP_LABELS = ["normal.", "attack", "normal", "attack.", "norma", "normal ",
                 "buffer_overflow.", "buffer_overfl"]


def lookup_taxonomy():
    return parse_taxonomy_text("normal A\nattack B\nbuffer_overflow B\n")


def lookup_schema():
    return Schema(
        (
            AttributeSpec("fixed", "discrete", LOOKUP_DOMAIN),
            AttributeSpec("size", "continuous"),
            AttributeSpec("open", "discrete"),  # domain defined by the load
        ),
        ("A", "B"),
    )


def lookup_lines(in_domain):
    fixed = st.sampled_from(LOOKUP_DOMAIN if in_domain else LOOKUP_SYMBOLS)
    fields = st.tuples(fixed, st.sampled_from(["1", "2.5"]), st.sampled_from(LOOKUP_SYMBOLS),
                       st.sampled_from(LOOKUP_LABELS))
    return st.lists(fields.map(",".join), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.booleans().flatmap(lookup_lines), chunk=st.integers(1, 7),
       permissive=st.booleans())
@example(lines=["tcp\0,1,a,normal.", "tcp,1,tcp\0,normal.", "tcp,1,tcp,normal."],
         chunk=1, permissive=True)
@example(lines=["a,1,tcpa,normal.", "a,1,tc,attack", "a,1,中,normal", "a,1,tcp,attack.",
                "a,1,a ,normal.", "a,1,ab,normal.", "a,1,b,normal.", "a,1,a,attack"],
         chunk=2, permissive=False)
@example(lines=["é,1,é,normal.", "a,2.5,a,attack", "tcp,1," + "s" * 32 + ",normal."],
         chunk=1, permissive=False)
@example(lines=["a,1,a,normal.", "a,1,b,normal", "a,1,ab,norma"], chunk=1, permissive=False)
@example(lines=["tcp_data,1,tcp_data\0x,normal.", "tcp_data\0x,1,tcp_data,buffer_overflow.",
                "tcp_data1,2.5,tcp_data1,buffer_overflow", "tcp_data,1,tcp_data1,attack"],
         chunk=4, permissive=True)
def test_symbol_lookup_matches_parse_record_loop(lines, chunk, permissive):
    schema, taxonomy = lookup_schema(), lookup_taxonomy()
    try:
        kept, skipped, domains = reference_load(lines, schema, taxonomy, permissive)
    except DataFormatError as exc:
        expected = exc
    else:
        expected = None
    real_codes = dataset_module._codes

    def checked_codes(symbols, index, table):
        # a lookup that misses still codes its row right, through the dict
        # path, so every call is held to dict.get on the symbols as read
        got = real_codes(symbols, index, table)
        read = symbols if isinstance(symbols, list) else symbols.tolist()
        read = [s.decode() if isinstance(s, bytes) else s for s in read]
        assert got.tolist() == [index.get(s, -1) for s in read]
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_module, "_CHUNK_LINES", chunk)
        mp.setattr(dataset_module, "_codes", checked_codes)
        if expected is not None:
            with pytest.raises(DataFormatError) as got:
                load_dataset(lines, schema, taxonomy, permissive=permissive)
            assert type(got.value) is type(expected)
            assert str(got.value) == str(expected)
            return
        ds = load_dataset(lines, schema, taxonomy, permissive=permissive)
    assert [ds.example(i) for i in range(ds.n)] == [
        Example(ex.values, ex.label, ex.label, 1.0 / len(kept)) for ex in kept
    ]
    assert {a.name: list(a.domain) for a in ds.schema.attributes if a.is_discrete} == domains
    assert ds.load_report.skipped_lines == [ln for ln, _ in skipped]
    extended = domains["fixed"][len(LOOKUP_DOMAIN):]
    assert ds.load_report.extended_domains == ({"fixed": extended} if extended else {})
    # every line here has its fields and numbers, so only a block that is not
    # ASCII is split and converted
    blocks = [lines[i:i + chunk] for i in range(0, len(lines), chunk)]
    fallback = sum(len(block) for block in blocks if not "".join(block).isascii())
    assert ds.load_report.fallback_lines == fallback
    assert ds.load_report.reader_lines == len(lines) - fallback


@pytest.mark.parametrize("symbol, reason", [("é", None), ("中", None),
                                            ("\udce9", "bad-encoding")],
                         ids=["latin-1", "above-ff", "undecodable"])
def test_non_ascii_line_sends_its_block_to_split_and_convert(tmp_path, symbol, reason):
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[100].split(",")
    fields[2] = symbol  # the service
    lines[100] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
    ds = load_dataset(path, kdd99_schema(), kdd99_taxonomy(), permissive=True)
    report = ds.load_report
    block = dataset_module._CHUNK_LINES
    assert report.fallback_lines == block
    assert report.reader_lines == len(lines) - block
    if reason is None:
        assert report.extended_domains == {"service": [symbol]}
        assert ds.example(100).values[2] == symbol
    else:
        assert report.reasons == {reason: 1} and report.skipped_lines == [101]


# -- byte ranges ---------------------------------------------------------------------


# one record line: a good one, one of BAD_EDITS, or a non-ASCII, undecodable,
# blank or whitespace-only one
RANGE_LINE = st.one_of(
    st.tuples(GOOD_FIELDS, st.sampled_from(sorted(BAD_EDITS))).map(
        lambda drawn: "   " if (f := BAD_EDITS[drawn[1]](list(drawn[0]))) is None
        else ",".join(f)),
    st.sampled_from(["", "   ", "\t", "é,1,tcp,0,normal.", "red,1,中,0,attack",
                     "blue,2,é,1,normal", "red,1,tc\udce9p,0,normal.", "green,1,a b,0,attack"]),
)
# a run of lines a permissive load skips, and in strict mode fails on
DIRTY_LINE = "red,1,tcp,0,warp."


def range_file(lines, endings, final, dirty, path):
    """Write ``lines`` with their line endings, ``dirty`` = (count, place)
    skipped lines put in among them, and a last line break when ``final``."""
    count, place = dirty
    lines = lines[:place] + [DIRTY_LINE] * count + lines[place:]
    endings = (endings * len(lines))[:len(lines)]
    text = "".join(line + end for line, end in zip(lines, endings))
    if not final:
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def load_outcome(path, schema, taxonomy, permissive):
    """Everything a load of ``path`` gives that must not depend on its
    ranges, or the error it raises; and its report's readers."""
    try:
        ds = load_dataset(path, schema, taxonomy, permissive=permissive)
    except DataFormatError as exc:
        return (type(exc), str(exc), exc.reason), None
    report = ds.load_report
    return ([ds.example(i) for i in range(ds.n)], ds.labels.tolist(), ds.schema,
            [c.dtype for c in ds.columns], report.n_loaded, report.skipped,
            report.skipped_lines, list(report.reasons.items()),
            list(report.extended_domains.items()), report.reader_lines,
            report.fallback_lines), report.readers


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(RANGE_LINE, min_size=1, max_size=40),
       endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
       final=st.booleans(), dirty=st.tuples(st.sampled_from([0, 0, 3, 130]), st.integers(0, 40)),
       readers=st.integers(2, 4), range_bytes=st.sampled_from([1, 16, 200]),
       pass_bytes=st.sampled_from([1, 7, 1 << 20]), chunk=st.integers(1, 4),
       permissive=st.booleans())
# symbols of the empty-domain column first seen in a later range, and
# non-ASCII and undecodable lines there
@example(lines=["red,1,tcp,0,normal."] * 3 + ["blue,1,udp,0,attack", "red,1,中,0,normal",
                                               "é,1,icmp,1,attack", "red,1,tc\udce9p,0,normal."],
         endings=["\n"], final=True, dirty=(0, 0), readers=3, range_bytes=1, pass_bytes=7,
         chunk=1, permissive=True)
# CRLF, lone CR and mixed endings, blank lines at range starts, no final
# line break
@example(lines=["red,1,tcp,0,normal.", "", "   ", "blue,2,udp,1,attack", "\t",
                "green,1,icmp,0,normal"], endings=["\r\n", "\r", "\n"], final=False,
         dirty=(0, 0), readers=4, range_bytes=1, pass_bytes=1, chunk=1, permissive=False)
# strict errors in the first range, in a later one, and in both
@example(lines=["red,1,tcp,0,normal."] * 8, endings=["\r"], final=True, dirty=(3, 6),
         readers=2, range_bytes=16, pass_bytes=1, chunk=2, permissive=False)
@example(lines=["red,1,tcp,0,normal.", DIRTY_LINE] + ["red,1,tcp,0,normal."] * 6 + [DIRTY_LINE],
         endings=["\n"], final=True, dirty=(0, 0), readers=2, range_bytes=1, pass_bytes=1 << 20,
         chunk=3, permissive=False)
# more than 100 skipped lines over two ranges, one of which keeps nothing;
# a line longer than a range
@example(lines=["red,1,tcp,0,normal.", "blue,2,udp,1,attack", "red,1," + "tcp" * 12 + ",0,normal"],
         endings=["\r\n"], final=False, dirty=(130, 2), readers=3, range_bytes=200,
         pass_bytes=7, chunk=4, permissive=True)
def test_ranged_load_matches_one_range_read(lines, endings, final, dirty, readers, range_bytes,
                                            pass_bytes, chunk, permissive):
    schema, taxonomy = property_schema(), property_taxonomy()
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        path = Path(work) / "records.csv"
        range_file(lines, endings, final, dirty, path)
        mp.setattr(dataset_module, "_CHUNK_LINES", chunk)
        mp.setattr(dataset_module, "_RANGE_BYTES", range_bytes)
        mp.setattr(dataset_module, "_PASS_BYTES", pass_bytes)
        mp.setattr(dataset_module, "_REMAP_ROWS", 3)
        mp.setattr(dataset_module, "_usable_cpus", lambda: 1)
        expected, one = load_outcome(path, schema, taxonomy, permissive)
        mp.setattr(dataset_module, "_usable_cpus", lambda: readers)
        ranges = dataset_module._byte_ranges(path, schema)
        got, many = load_outcome(path, schema, taxonomy, permissive)
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            text_lines = sum(1 for _ in fh)
    event(f"{len(ranges)} ranges")
    assert got == expected
    assert one in (1, None) and many in (len(ranges), None)
    # the ranges tile the file, each line numbered as text mode counts it
    if len(ranges) > 1:
        assert [r[1] for r in ranges] == list(np.cumsum([1] + [r[2] for r in ranges[:-1]]))
        assert sum(r[2] for r in ranges) == text_lines
        assert all(bound == count for _, _, count, bound in ranges)


def test_a_file_is_read_in_one_range_per_cpu(tmp_path, monkeypatch):
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 1 << 16)
    outcomes = {}
    for readers in (1, 3):
        monkeypatch.setattr(dataset_module, "_usable_cpus", lambda readers=readers: readers)
        outcomes[readers] = load_outcome(path, kdd99_schema(), kdd99_taxonomy(), False)
    assert outcomes[3][0] == outcomes[1][0]
    assert (outcomes[1][1], outcomes[3][1]) == (1, 3)
    # a read in batches maps each range in its own process, this one first;
    # a list of lines stays in this process
    def sizes_here(batches):
        return os.getpid(), [batch.n for batch in batches]

    report = LoadReport()
    mapped = map_batches(path, kdd99_schema(), kdd99_taxonomy(), report, sizes_here, rows=1000)
    lines = path.read_text(encoding="utf-8").splitlines()
    pids = [pid for pid, _ in mapped]
    assert pids[0] == os.getpid() and len(set(pids)) == report.readers == 3
    assert all(n >= 1000 for _, sizes in mapped for n in sizes[:-1])
    assert sum(sum(sizes) for _, sizes in mapped) == report.n_loaded == len(lines)
    assert load_dataset(lines, kdd99_schema(), kdd99_taxonomy()).load_report.readers == 1
    report = LoadReport()
    assert map_batches(lines, kdd99_schema(), kdd99_taxonomy(), report, sizes_here,
                       rows=1000)[0][0] == os.getpid()
    assert report.readers == 1 and report.n_loaded == len(lines)
    # a range is no shorter than _RANGE_BYTES: a file of less than two is one,
    # read to its end and bound by its size: a KDD record holds 41 commas and
    # 34 numbers, and a line break unless it is the last
    size = path.stat().st_size
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", size // 2 + 1)
    assert dataset_module._byte_ranges(path, kdd99_schema()) == [(0, 1, None, (size + 1) // 76)]


def test_no_reader_process_outlives_a_load(tmp_path, monkeypatch):
    def no_process_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    no_process_left()
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 64)
    monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 4)
    schema, taxonomy, path = toy_schema(), toy_taxonomy(), tmp_path / "records.csv"
    lines = toy_lines(20, 20)
    path.write_text("\n".join(lines) + "\n")
    assert load_dataset(path, schema, taxonomy).load_report.readers == 2
    no_process_left()

    # a strict error in each range: the first range's is raised
    lines[5] = lines[30] = "purple,1,normal."
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as error:
        load_dataset(path, schema, taxonomy)
    assert str(error.value) == (f"{path}: value 'purple' outside domain of attribute "
                                "'color' at line 6")
    assert error.value.reason == "out-of-domain"
    no_process_left()

    path.write_text("red,x,normal.\n" * 40)
    with pytest.raises(EmptyDatasetError, match=r"no usable examples \(skipped: bad-number 40\)"):
        load_dataset(path, schema, taxonomy, permissive=True)
    no_process_left()

    # a reader process that dies without a result, or raises, or a load
    # interrupted while it waits for its readers
    path.write_text("\n".join(toy_lines(20, 20)) + "\n")
    parent, read_lines = os.getpid(), dataset_module._iter_lines

    def dies(*args):
        if os.getpid() != parent:
            os._exit(3)
        return read_lines(*args)

    def runs_out(*args):
        if os.getpid() != parent:
            raise MemoryError("no room for the block")
        return read_lines(*args)

    def interrupted(_result):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        mp.setattr(dataset_module, "_iter_lines", dies)
        with pytest.raises(DataFormatError,
                           match=f"^cannot read record file {re.escape(str(path))}: "):
            load_dataset(path, schema, taxonomy)
        no_process_left()
        mp.setattr(dataset_module, "_iter_lines", runs_out)
        with pytest.raises(MemoryError, match="^no room for the block$"):
            load_dataset(path, schema, taxonomy)
        no_process_left()
        mp.setattr(dataset_module, "pickle",
                   SimpleNamespace(dumps=pickle.dumps, loads=interrupted))
        with pytest.raises(KeyboardInterrupt):
            load_dataset(path, schema, taxonomy)
        no_process_left()

    # a fork that fails leaves no pipe open
    def no_fork():
        raise OSError("no process to spare")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(dataset_module.os, "fork", no_fork)
    with pytest.raises(OSError, match="no process to spare"):
        load_dataset(path, schema, taxonomy)
    assert len(os.listdir("/proc/self/fd")) == open_fds


def decoded(ds):
    """The columns of ``ds`` as symbols and numbers, then its class names."""
    columns = [np.array(spec.domain, dtype=object)[col] if spec.is_discrete else col
               for spec, col in zip(ds.schema.attributes, ds.columns)]
    return [*columns, np.array(ds.schema.class_names)[ds.labels]]


@pytest.mark.parametrize("readers", [1, 3, None], ids=["file-1-reader", "file-3-readers",
                                                       "list"])
def test_held_batches_are_independent(tmp_path, monkeypatch, readers):
    path = tmp_path / "corpus.csv"
    synth.write_kdd_corpus(path, seed=7, scale=0.01)
    source = path if readers else path.read_text(encoding="utf-8").splitlines()
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: readers or 1)
    monkeypatch.setattr(dataset_module, "_RANGE_BYTES", 1 << 16)
    monkeypatch.setattr(dataset_module, "_CHUNK_LINES", 64)
    schema, taxonomy, report = kdd99_schema(), kdd99_taxonomy(), LoadReport()
    # every batch is held until its whole range is read
    held = map_batches(source, schema, taxonomy, report, list, rows=200)
    batches = [batch for part in held for batch in part]
    assert report.readers == (readers or 1) and len(batches) > 10
    got = [np.concatenate(column) for column in zip(*map(decoded, batches))]
    for got_column, loaded in zip(got, decoded(load_dataset(source, schema, taxonomy)),
                                  strict=True):
        np.testing.assert_array_equal(got_column, loaded)


@pytest.mark.parametrize("kinds, record, exact", [
    ("ddd", ",,,a", False),
    ("ddd", ",,,", True),
    ("cdc", "0,,0,", True),
], ids=["one-character-label", "empty-label", "numbers"])
def test_a_one_range_bound_holds_the_shortest_records(tmp_path, monkeypatch, kinds, record,
                                                      exact):
    # a kept record holds a comma per attribute and a character per number
    # and, but for the last, a line break: the label may be empty
    schema = Schema(tuple(AttributeSpec(f"x{j}", "discrete" if kind == "d" else "continuous")
                          for j, kind in enumerate(kinds)), ("A", "B"))
    taxonomy = AttackTaxonomy({"a": "A", "": "B"})
    path, k = tmp_path / "records.csv", 5000
    path.write_text("\n".join([record] * k))  # no line break after the last
    monkeypatch.setattr(dataset_module, "_usable_cpus", lambda: 1)
    ((_, _, lines, bound),) = dataset_module._byte_ranges(path, schema)
    assert lines is None and (bound == k if exact else bound > k)
    ds = load_dataset(path, schema, taxonomy)
    assert ds.n == k and ds.load_report.readers == 1
    assert ds.labels.tolist() == [0 if record.endswith("a") else 1] * k
    # a file that holds more records than its size at the cut allows grew
    size = path.stat().st_size
    monkeypatch.setattr(dataset_module.os.path, "getsize", lambda _: size // 2)
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: record file grew"):
        load_dataset(path, schema, taxonomy)


class _Torn(Exception):
    """An exception whose constructor takes other arguments than the
    ``args`` it keeps: it pickles, but does not unpickle."""

    def __init__(self, text, code):
        super().__init__(f"{text} ({code})")


def _raise(exc):
    raise exc


def test_fork_map_raises_a_workers_own_exception(tmp_path):
    def in_worker(fail):
        return lambda k: fail() if k else k

    with pytest.raises(UnicodeDecodeError) as decode:
        dataset_module.fork_map("decode", 2, in_worker(lambda: b"ok\xe9".decode()),
                                DataFormatError)
    assert (decode.value.encoding, decode.value.object, decode.value.start) == (
        "utf-8", b"ok\xe9", 2)
    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError) as lost:
        dataset_module.fork_map("open", 2, in_worker(lambda: open(missing)), DataFormatError)
    assert (lost.value.errno, lost.value.filename) == (errno.ENOENT, str(missing))
    with pytest.raises(TaxonomyError) as fault:
        dataset_module.fork_map("parse", 2, in_worker(
            lambda: parse_record("red,1,warp.", toy_schema(), toy_taxonomy())), DataFormatError)
    assert fault.value.reason == "unknown-attack"

    # an exception that does not pickle (a local class) or does not unpickle
    class Local(Exception):
        pass

    for raised, described in [(Local("kept here"), "Local: kept here"),
                              (_Torn("torn", 7), "_Torn: torn (7)")]:
        with pytest.raises(DataFormatError,
                           match=rf"^pass: worker process \d+ raised {re.escape(described)}$"):
            dataset_module.fork_map("pass", 2, in_worker(lambda: _raise(raised)),
                                    DataFormatError)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_of_one_item_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(dataset_module.os, "fork", no_fork)
    assert dataset_module.fork_map("one", 1, lambda k: (k, os.getpid()), DataFormatError) == [
        (0, os.getpid())]


@pytest.mark.parametrize("end, ended", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), r"killed by signal 9 \(SIGKILL\)"),
    (lambda: os._exit(3), "exited with status 3"),
], ids=["sigkill", "exit-3"])
def test_fork_map_says_how_a_silent_worker_ended(end, ended):
    # the worker is reaped to read how it ended, and not killed or waited
    # for again: either would raise here instead of the error
    with pytest.raises(DataFormatError, match=rf"^silent: worker process \d+ ended without a "
                                              rf"result: {ended}$"):
        dataset_module.fork_map("silent", 3, lambda k: end() if k == 1 else k, DataFormatError)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


# -- class_counts -------------------------------------------------------------------


def test_class_counts_toy():
    ds = load_dataset(toy_lines(3, 1), toy_schema(), toy_taxonomy())
    counts = class_counts(ds)
    assert counts.classes == ("A", "B")
    assert counts.counts.tolist() == [3, 1]
    assert counts.total == 4
    assert abs(counts.weighted.sum() - 1.0) < 1e-9


def test_class_counts_single_class_weighted():
    ds = load_dataset(toy_lines(4, 0), toy_schema(), toy_taxonomy())
    counts = class_counts(ds)
    assert counts.counts.tolist() == [4, 0]
    assert counts.weighted.tolist() == [pytest.approx(1.0), 0.0]


def test_class_counts_empty_dataset():
    schema = toy_schema()
    ds = WeightedDataset(schema, [np.empty(0, np.int32), np.empty(0)],
                         np.empty(0, np.int64), np.empty(0))
    counts = class_counts(ds)
    assert counts.total == 0
    assert not counts.counts.any()


# -- project_attributes ---------------------------------------------------------------


def test_project_identity():
    ds = load_dataset(toy_lines(), toy_schema(), toy_taxonomy())
    same = project_attributes(ds, ["color", "size"])
    assert same.schema.attribute_names == ds.schema.attribute_names
    assert same.n == ds.n
    np.testing.assert_array_equal(same.labels, ds.labels)


def test_project_subset_keeps_labels_weights_and_order():
    schema = Schema(
        (
            AttributeSpec("a", "discrete", ("x", "y")),
            AttributeSpec("b", "continuous"),
            AttributeSpec("c", "discrete", ("0", "1")),
        ),
        ("A", "B"),
    )
    ds = synth.make_dataset(
        schema, [("x", 1.0, "0"), ("y", 2.0, "1"), ("x", 3.0, "1")], ["A", "B", "A"]
    )
    red = project_attributes(ds, {"c", "a"})  # set order must not matter
    assert red.schema.attribute_names == ("a", "c")
    assert red.n == 3
    np.testing.assert_array_equal(red.labels, ds.labels)
    np.testing.assert_array_equal(red.weights, ds.weights)
    np.testing.assert_array_equal(class_counts(red).counts, class_counts(ds).counts)
    np.testing.assert_array_equal(class_counts(red).weighted, class_counts(ds).weighted)


@pytest.mark.parametrize("weights, message", [
    ([np.nan, 0.5, 0.5, 0.5], "non-finite example weight"),
    ([np.inf, 1, 1, 1], "non-finite example weight"),
    ([0.5, 0.5, -np.inf, 0.5], "non-finite example weight"),
    ([0.5, 0.5, 0.5, -0.5], "negative example weight"),
    ([0, 0, 0, 0], "positive total weight"),
], ids=["nan", "inf", "-inf", "negative", "zero-total"])
def test_dataset_rejects_bad_example_weights(weights, message):
    rows = [("red", 1.0), ("red", 2.0), ("blue", 3.0), ("blue", 4.0)]
    with pytest.raises(SchemaError, match=message):
        synth.make_dataset(toy_schema(), rows, ["A", "A", "B", "B"], weights=weights)
    ds = synth.make_dataset(toy_schema(), rows, ["A", "A", "B", "B"])
    with pytest.raises(SchemaError, match=message):
        ds.with_weights(np.array(weights, dtype=float))


def test_project_rejects_unknown_or_empty():
    ds = load_dataset(toy_lines(), toy_schema(), toy_taxonomy())
    with pytest.raises(SchemaError):
        project_attributes(ds, ["nope"])
    with pytest.raises(SchemaError):
        project_attributes(ds, [])


# -- stratified_split -----------------------------------------------------------------


def two_class_dataset(n_each=50):
    lines = [f"red,{i},normal." for i in range(n_each)]
    lines += [f"blue,{i},attack." for i in range(n_each)]
    return load_dataset(lines, toy_schema(), toy_taxonomy())


def test_split_exact_stratification():
    ds = two_class_dataset(50)
    train, test = stratified_split(ds, 0.2, seed=3)
    assert class_counts(test).counts.tolist() == [10, 10]
    assert train.n == 80
    np.testing.assert_allclose(train.weights, 1.0 / 80)
    np.testing.assert_allclose(test.weights, 1.0 / 20)


def test_split_deterministic():
    ds = two_class_dataset(30)
    a = stratified_split(ds, 0.3, seed=11)
    b = stratified_split(ds, 0.3, seed=11)
    assert [col.tolist() for col in a.test.columns] == [col.tolist() for col in b.test.columns]
    c = stratified_split(ds, 0.3, seed=12)
    assert [col.tolist() for col in a.test.columns] != [col.tolist() for col in c.test.columns]


def test_split_rejects_degenerate_fraction():
    ds = two_class_dataset(5)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stratified_split(ds, bad, seed=1)


def test_split_flags_tiny_classes():
    lines = [f"red,{i},normal." for i in range(10)] + ["blue,1,attack."]
    ds = load_dataset(lines, toy_schema(), toy_taxonomy())
    split = stratified_split(ds, 0.3, seed=5)
    # the one-row class B is not rejected: it lands in exactly one part
    assert sorted(sum(part.labels == 1) for part in split) == [0, 1]


def labelled_dataset(labels, n_attributes=2):
    """A dataset of the given class indices (of classes A, B, C) whose
    columns tell every row apart."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    schema = Schema(tuple(AttributeSpec(f"x{j}", "continuous") for j in range(n_attributes)),
                    ("A", "B", "C"))
    rng = np.random.default_rng(n)
    return WeightedDataset(
        schema, [rng.random(n) for _ in range(n_attributes)], labels, np.full(n, 1.0),
        source="mix.csv", load_report=LoadReport(n_loaded=n),
    )


def _arrays(ds):
    return [*ds.columns, ds.labels, ds.weights]


def _drawn(draw):
    try:
        return draw()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(0, 2), max_size=40),
       fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_sample_is_the_test_part_of_the_split(labels, fraction, seed):
    ds = labelled_dataset(labels)
    sample = _drawn(lambda: stratified_sample(ds, fraction, seed))
    test = _drawn(lambda: stratified_split(ds, fraction, seed).test)
    if isinstance(sample, str) or isinstance(test, str):
        assert sample == test
        return
    for a, b in zip(_arrays(sample), _arrays(test)):
        np.testing.assert_array_equal(a, b)
    assert sample.schema == test.schema and sample.source == test.source
    assert sample.load_report == test.load_report == ds.load_report


def test_sample_holds_only_its_rows():
    rng = np.random.default_rng(0)
    ds = labelled_dataset(rng.integers(0, 3, 100_000), n_attributes=30)
    array_bytes = sum(a.nbytes for a in _arrays(ds))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample = stratified_sample(ds, 0.1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n == pytest.approx(10_000, abs=3)
    assert peak - before < array_bytes / 4


def test_derived_datasets_share_their_parents_arrays():
    ds = two_class_dataset(5)
    reweighted = ds.with_weights(np.full(ds.n, 0.5))
    assert reweighted.labels is ds.labels
    assert reweighted.columns is ds.columns
    assert ds.with_labels(np.zeros(ds.n, int)).weights is ds.weights


# -- schema / taxonomy files -------------------------------------------------------------


def test_schema_file_parsing():
    schema = parse_schema_text(
        """
        # comment
        classes: A B C
        duration: continuous
        proto: discrete
        """
    )
    assert schema.class_names == ("A", "B", "C")
    assert schema.attributes[0].kind == "continuous"
    assert schema.attributes[1].kind == "discrete"
    assert schema.attributes[1].domain == ()


def test_schema_file_requires_header_and_kinds():
    with pytest.raises(DataFormatError, match="classes"):
        parse_schema_text("duration: continuous\n")
    with pytest.raises(DataFormatError, match="kind"):
        parse_schema_text("classes: A B\nduration: numeric\n")


def test_taxonomy_file_parsing_and_conflicts():
    tax = parse_taxonomy_text("# c\nnormal  Normal\nneptune DoS\n")
    assert tax.class_of("neptune") == "DoS"
    with pytest.raises(DataFormatError, match="conflicting"):
        parse_taxonomy_text("x A\nx B\n")
    with pytest.raises(DataFormatError, match="raw_name"):
        parse_taxonomy_text("just_one_token\n")


# characters str.splitlines breaks at but a file's lines do not
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_schema_comment_holding_a_line_separator_stays_one_line(tmp_path, char):
    text = f"classes: A B\n# a{char}flag: discrete\nsize: nominal\n"
    with pytest.raises(DataFormatError, match=r"kind must be .* \(line 3\)$"):
        parse_schema_text(text)
    path = tmp_path / "schema.txt"
    path.write_text(text.replace("nominal", "continuous"), encoding="utf-8")
    assert load_schema_file(path).attribute_names == ("size",)


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_taxonomy_comment_holding_a_line_separator_stays_one_line(tmp_path, char):
    text = f"normal A\n# a{char}odd B\nwarp\n"
    with pytest.raises(DataFormatError, match="at line 3 of taxonomy file"):
        parse_taxonomy_text(text)
    path = tmp_path / "taxonomy.txt"
    path.write_text(text.replace("warp", "warp B"), encoding="utf-8")
    assert load_taxonomy_file(path).mapping == {"normal": "A", "warp": "B"}


def test_builtin_taxonomy_covers_known_attacks():
    tax = kdd99_taxonomy()
    expected = {
        "normal": "Normal",
        "back": "DoS", "land": "DoS", "neptune": "DoS", "pod": "DoS",
        "smurf": "DoS", "teardrop": "DoS",
        "ftp_write": "R2L", "guess_passwd": "R2L", "imap": "R2L",
        "multihop": "R2L", "phf": "R2L", "spy": "R2L",
        "warezclient": "R2L", "warezmaster": "R2L",
        "buffer_overflow": "U2R", "perl": "U2R", "loadmodule": "U2R",
        "rootkit": "U2R",
        "ipsweep": "Probe", "nmap": "Probe", "portsweep": "Probe",
        "satan": "Probe",
    }
    for name, cls in expected.items():
        assert tax.class_of(name) == cls
    with pytest.raises(TaxonomyError, match="no_such_attack"):
        tax.class_of("no_such_attack")


def test_builtin_schema_shape():
    schema = kdd99_schema()
    assert schema.n_attributes == 41
    assert schema.class_names == ("Normal", "Probe", "DoS", "U2R", "R2L")
    kinds = [a.kind for a in schema.attributes]
    assert kinds.count("discrete") == 7
    assert schema.attributes[2].name == "service"
    assert len(schema.attributes[2].domain) >= 60
