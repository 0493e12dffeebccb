"""The report writer of the CLI against json.dumps(indent=2, sort_keys=True)."""

import json
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlds import cli
from normlds.coordseq import DecimalList

# strings of '-' and digits only: the writer copies these without escaping
DECIMAL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{0,40}", fullmatch=True),
    st.sampled_from(["", "-", "-0", "--", "0-1", "-12345678901234567890"]),
)
# quotes, backslashes, control characters, non-ASCII and a lone surrogate,
# alone and beside digits
SPECIAL = ['"', "\\", '12"3', "1\\2", "\n\t\x00\x1f\x7f", "1\n", "é", "-1é", " ",
           "\U0001f600", "\ud800", "1/2", "1 2", "+3", "١٢"]
STRINGS = st.one_of(st.text(max_size=12), DECIMAL_TEXT, st.sampled_from(SPECIAL))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), STRINGS)


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
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


def test_decimal_columns_skip_the_string_escaper(monkeypatch):
    escaped = []

    def escape(text):
        escaped.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", escape)
    payload = {
        "terms": [DecimalList(["1", "-20"]), DecimalList(["300", "0"])],
        "dk": DecimalList(["7", "-8"]),
        "name": "x^2 - 3",
    }
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # the keys and the one non-decimal string, not the terms
    assert sorted(escaped) == ["dk", "name", "terms", "x^2 - 3"]


# rows that coordseq vouches for as decimal text: the writer does not test their items
TYPED_ROWS = st.lists(DECIMAL_TEXT, max_size=6).map(DecimalList)


def containers_with_typed_rows(inner):
    return st.one_of(containers(inner), st.lists(TYPED_ROWS, max_size=4))


# typed rows as leaves, so they appear at every nesting depth, and lists of them
TYPED_PAYLOADS = st.recursive(st.one_of(SCALARS, TYPED_ROWS), containers_with_typed_rows, max_leaves=40)


@given(TYPED_PAYLOADS)
@settings(max_examples=500, deadline=None)
def test_writer_with_typed_rows_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_typed_rows_are_not_tested_or_escaped(monkeypatch):
    escaped = []

    def escape(text):
        escaped.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", escape)
    payload = {"terms": [DecimalList(["1", "-20"]), DecimalList(["300", "0"])], "dk": DecimalList(["7"])}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    assert sorted(escaped) == ["dk", "terms"]


@st.composite
def term_columns(draw):
    """1-4 columns of 0-6 decimal strings each, all of one length."""
    rows = draw(st.integers(0, 6))
    column = st.lists(DECIMAL_TEXT, min_size=rows, max_size=rows)
    return draw(st.lists(column, min_size=1, max_size=4))


@given(term_columns())
@settings(max_examples=300, deadline=None)
def test_columns_are_written_as_their_rows(columns):
    rows = [list(row) for row in zip(*columns)]
    assert cli._json_text(cli._Rows(columns)) == json.dumps(rows, indent=2, sort_keys=True)
    payload = {"terms": cli._Rows(columns), "k": "1"}
    want = json.dumps({"terms": rows, "k": "1"}, indent=2, sort_keys=True)
    assert cli._json_text(payload) == want


@given(term_columns(), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_csv_interleave_matches_joined_rows(columns, first):
    lines = ["k,x"] + [",".join((str(k), *row)) for k, row in enumerate(zip(*columns), first)]
    assert cli._csv_text("k,x", first, columns) == "\n".join(lines)


def test_columns_skip_the_string_escaper(monkeypatch):
    escaped = []

    def escape(text):
        escaped.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", escape)
    columns = [DecimalList(["1", "-20"]), DecimalList(["300", "0"])]
    payload = {"terms": cli._Rows(columns)}
    want = json.dumps({"terms": [["1", "300"], ["-20", "0"]]}, indent=2, sort_keys=True)
    assert cli._json_text(payload) == want
    assert escaped == ["terms"]


@pytest.mark.parametrize("scalar", [None, True, False, 0, 1, -1, 10**40, -(10**40), 2.5, float("nan")])
def test_scalars_in_lists_and_dicts(scalar):
    # bool is tested before int: int.__repr__(True) is '1', json writes 'true'
    for payload in (scalar, [scalar], {"k": scalar}, [scalar, "1", DecimalList(["2"])]):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@st.composite
def tables(draw):
    """A _Table of 1-4 named columns of 0-20 rows: ints as a range, decimal text, or null.

    The first column is never null, so the rows end where the columns do.
    """
    rows = draw(st.integers(0, 20))
    keys = draw(st.lists(st.one_of(st.text(max_size=6), st.sampled_from(SPECIAL)),
                         min_size=1, max_size=4, unique=True))
    pairs = []
    for i, key in enumerate(keys):
        kind = draw(st.sampled_from(["range", "decimal", "null"][: 3 if i else 2]))
        if kind == "range":
            start, step = draw(st.integers(-(10**30), 10**30)), draw(st.integers(-7, 7).filter(bool))
            column = range(start, start + step * rows, step)
        elif kind == "decimal":
            column = DecimalList(draw(st.lists(DECIMAL_TEXT, min_size=rows, max_size=rows)))
        else:
            column = None
        pairs.append((key, column))
    return cli._Table(pairs)


def table_rows(table):
    """The list of dicts a _Table stands for, keyed in its order."""
    keys = [key for key, _ in table]
    columns = [repeat(None) if column is None else column for _, column in table]
    return [dict(zip(keys, row)) for row in zip(*columns)]


@given(tables(), st.lists(st.booleans(), max_size=3), st.dictionaries(st.text(max_size=4), SCALARS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_table_is_written_as_its_list_of_dicts(table, levels, others):
    # depth 0-3: each level is a dict with other keys beside the table, or a list
    payload, want = table, table_rows(table)
    for in_dict in levels:
        if in_dict:
            payload, want = {**others, "vanishing": payload}, {**others, "vanishing": want}
        else:
            payload, want = ["1", payload, None], ["1", want, None]
    assert cli._json_text(payload) == json.dumps(want, indent=2, sort_keys=True)


@given(tables(), st.dictionaries(st.text(max_size=4), STRINGS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_table_renders_as_text_like_its_list_of_dicts(table, others):
    # --format text writes json.dumps of the rows, with the keys in the table's order
    rows = table_rows(table)
    assert cli._render_text({**others, "scan": {"rows": table}}) == cli._render_text(
        {**others, "scan": {"rows": rows}}
    )
    assert cli._render_text({"rows": table}) == f"rows: {json.dumps(rows)}"
