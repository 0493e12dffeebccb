"""The report writer of the CLI against json.dumps(indent=2, sort_keys=True).

A _Table stands for the rows its columns make: a list of dicts (shape "{}"),
a list of lists ("[]") or the items of its one column (""). Each property
compares the writer with json.dumps of those rows.
"""

import gc
import json
import weakref
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlds import cli
from normlds.exactlinalg import InvariantViolation

# strings of '-' and digits only: the writer copies these without escaping
DECIMAL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{0,40}", fullmatch=True),
    st.sampled_from(["", "-", "-0", "--", "0-1", "-12345678901234567890"]),
)
# quotes, backslashes, control characters, non-ASCII and a lone surrogate,
# alone and beside digits
SPECIAL = ['"', "\\", '12"3', "1\\2", "\n\t\x00\x1f\x7f", "1\n", "é", "-1é", " ",
           "\U0001f600", "\ud800", "1/2", "1 2", "+3", "١٢"]


def texts(max_size):
    # a string that ends in NUL can read as a _Table's marker, which _json_text
    # refuses (test_a_string_that_reads_as_a_marker_is_an_invariant_violation)
    return st.text(max_size=max_size).filter(lambda s: not s.endswith("\0"))


STRINGS = st.one_of(texts(12), DECIMAL_TEXT, st.sampled_from(SPECIAL))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), STRINGS)
KEYS = st.one_of(texts(6), st.sampled_from(SPECIAL))


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts(6), inner, max_size=5),
        st.lists(DECIMAL_TEXT, max_size=6),
        st.lists(st.one_of(DECIMAL_TEXT, st.integers()), max_size=6),
    )


PAYLOADS = st.recursive(SCALARS, containers, max_leaves=40)


@given(PAYLOADS)
@settings(max_examples=500, deadline=None)
def test_writer_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("text", SPECIAL)
def test_a_special_string_among_decimal_ones(text):
    for payload in ([text], ["12", text], [text, "-3"], {"k": ["0", text, "-"]}):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_empty_and_nested_containers():
    payload = {"b": [], "a": {}, "c": [[], {}, [["-1", "2"], ["", "-"]]], "d": {"e": {"f": []}}}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@st.composite
def tables(draw, shapes=("{}", "[]", "")):
    """A _Table of 0-20 rows: 1-4 columns, or one for shape "", of ints as a range,
    decimal text, or null.

    The first column is never null, so the rows end where the columns do.
    """
    shape = draw(st.sampled_from(shapes))
    rows = draw(st.integers(0, 20))
    count = 1 if shape == "" else draw(st.integers(1, 4))
    if shape == "{}":
        keys = draw(st.lists(KEYS, min_size=count, max_size=count, unique=True))
    else:
        keys = [None] * count
    pairs = []
    for i, key in enumerate(keys):
        kind = draw(st.sampled_from(["range", "decimal", "null"][: 3 if i else 2]))
        if kind == "range":
            start, step = draw(st.integers(-(10**30), 10**30)), draw(st.integers(-7, 7).filter(bool))
            column = range(start, start + step * rows, step)
        elif kind == "decimal":
            column = draw(st.lists(DECIMAL_TEXT, min_size=rows, max_size=rows))
        else:
            column = None
        pairs.append((key, column))
    return cli._Table(tuple(pairs), shape)


def table_rows(table):
    """The rows a _Table stands for; a dict row is keyed in the table's order."""
    columns = [repeat(None) if column is None else column for _, column in table.pairs]
    if table.shape == "":
        return list(columns[0])
    if table.shape == "[]":
        return [list(row) for row in zip(*columns)]
    keys = [key for key, _ in table.pairs]
    return [dict(zip(keys, row)) for row in zip(*columns)]


def plain(value):
    """value with each _Table in it replaced by its rows."""
    if isinstance(value, cli._Table):
        return table_rows(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def nested(table, levels, others):
    """table, and its rows, at depth len(levels): each level a dict beside others, or a list."""
    payload, want = table, table_rows(table)
    for in_dict in levels:
        if in_dict:
            payload, want = {**others, "vanishing": payload}, {**others, "vanishing": want}
        else:
            payload, want = ["1", payload, None], ["1", want, None]
    return payload, want


def containers_with_tables(inner):
    return st.one_of(containers(inner), st.lists(tables(), max_size=4))


# tables as leaves, so they appear at every nesting depth, and lists of them
TABLE_PAYLOADS = st.recursive(st.one_of(SCALARS, tables()), containers_with_tables, max_leaves=40)


@given(TABLE_PAYLOADS)
@settings(max_examples=500, deadline=None)
def test_writer_with_typed_rows_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(plain(payload), indent=2, sort_keys=True)


def escaped_strings(monkeypatch, payload):
    """The strings that writing payload escapes, once the text is checked against json.dumps."""
    want = json.dumps(plain(payload), indent=2, sort_keys=True)
    escaped = []
    original = json.encoder.encode_basestring_ascii

    def escape(text):
        escaped.append(text)
        return original(text)

    # json.dumps reads its escaper from json.encoder, _write_rows from cli
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", escape)
    monkeypatch.setattr(cli, "encode_basestring_ascii", escape)
    assert cli._json_text(payload) == want
    return sorted(escaped)


def test_decimal_columns_skip_the_string_escaper(monkeypatch):
    payload = {"terms": cli._Table(((None, ["7", "-8"]),), ""), "name": "x^2 - 3"}
    # the keys, the one non-decimal string and the table's marker, not the terms
    assert escaped_strings(monkeypatch, payload) == ["\0", "name", "terms", "x^2 - 3"]


def test_typed_rows_are_not_tested_or_escaped(monkeypatch):
    rows = cli._Table((("y1", ["1", "-20"]), ("n", range(2)), ("d", None)), "{}")
    payload = {"vanishing": {"rows": rows}}
    # a dict row's keys are escaped once per table, not per row
    assert escaped_strings(monkeypatch, payload) == ["\0", "d", "n", "rows", "vanishing", "y1"]


@st.composite
def term_columns(draw):
    """1-4 columns of 0-6 decimal strings each, all of one length."""
    rows = draw(st.integers(0, 6))
    column = st.lists(DECIMAL_TEXT, min_size=rows, max_size=rows)
    return draw(st.lists(column, min_size=1, max_size=4))


LEVELS = st.lists(st.booleans(), max_size=3)
OTHERS = st.dictionaries(texts(4), SCALARS, max_size=3)
TEXT_OTHERS = st.dictionaries(texts(4), STRINGS, max_size=3)


@given(term_columns(), LEVELS, OTHERS)
@settings(max_examples=300, deadline=None)
def test_columns_are_written_as_their_rows(columns, levels, others):
    table = cli._Table(tuple(zip(repeat(None), columns)), "[]")
    payload, want = nested(table, levels, others)
    assert cli._json_text(payload) == json.dumps(want, indent=2, sort_keys=True)
    assert cli._render_text({"terms": table}) == f"terms: {json.dumps(table_rows(table))}"


@given(st.lists(DECIMAL_TEXT, max_size=8), LEVELS, OTHERS, TEXT_OTHERS)
@settings(max_examples=300, deadline=None)
def test_one_column_is_written_as_its_items(column, levels, others, text_others):
    table = cli._Table(((None, column),), "")
    payload, want = nested(table, levels, others)
    assert cli._json_text(payload) == json.dumps(want, indent=2, sort_keys=True)
    assert cli._render_text({**text_others, "dk": {"terms": table}}) == cli._render_text(
        {**text_others, "dk": {"terms": column}}
    )


@given(term_columns(), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_csv_interleave_matches_joined_rows(columns, first):
    lines = ["k,x"] + [",".join((str(k), *row)) for k, row in enumerate(zip(*columns), first)]
    assert cli._csv_text("k,x", first, columns) == "\n".join(lines)


def test_columns_skip_the_string_escaper(monkeypatch):
    payload = {"terms": cli._Table(((None, ["1", "-20"]), (None, ["300", "0"])), "[]")}
    assert escaped_strings(monkeypatch, payload) == ["\0", "terms"]


@pytest.mark.parametrize("scalar", [None, True, False, 0, 1, -1, 10**40, -(10**40), 2.5, float("nan")])
def test_scalars_in_lists_and_dicts(scalar):
    column = cli._Table(((None, ["2"]),), "")
    for payload in (scalar, [scalar], {"k": scalar}, [scalar, "1", column]):
        assert cli._json_text(payload) == json.dumps(plain(payload), indent=2, sort_keys=True)


@given(tables(("{}",)), LEVELS, OTHERS)
@settings(max_examples=200, deadline=None)
def test_a_table_is_written_as_its_list_of_dicts(table, levels, others):
    payload, want = nested(table, levels, others)
    assert cli._json_text(payload) == json.dumps(want, indent=2, sort_keys=True)


@given(tables(("{}",)), TEXT_OTHERS)
@settings(max_examples=200, deadline=None)
def test_a_table_renders_as_text_like_its_list_of_dicts(table, others):
    # --format text writes json.dumps of the rows, with the keys in the table's order
    rows = table_rows(table)
    assert cli._render_text({**others, "scan": {"rows": table}}) == cli._render_text(
        {**others, "scan": {"rows": rows}}
    )
    assert cli._render_text({"rows": table}) == f"rows: {json.dumps(rows)}"


class Column(list):
    """A list that takes a weak reference."""


def test_the_columns_are_released_with_the_payload():
    # json's indent encoder holds its default hook in a reference cycle; without
    # a collection, a hook that still held the tables would keep every column
    column = Column(["1", "-2"])
    ref = weakref.ref(column)
    payload = {"terms": cli._Table(((None, column),), "")}
    del column
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = cli._json_text(payload)
        del payload
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert text == json.dumps({"terms": ["1", "-2"]}, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [{"k": "\0"}, {"\0": 1}, ["\0", cli._Table(((None, ["1"]),), "")], {"k": '"\0'}],
    ids=["value", "key", "beside-a-table", "after-a-quote"],
)
def test_a_string_that_reads_as_a_marker_is_an_invariant_violation(payload):
    with pytest.raises(InvariantViolation):
        cli._json_text(payload)
