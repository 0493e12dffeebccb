"""Batch command line interface.

Subcommands: construct-basis, emit-sequence, verify-lds, dk-scan, family-scan,
snf-check. Reports are deterministic (byte-identical for identical inputs);
integers are serialized as decimal strings so arbitrary precision survives
JSON consumers. Exit codes: 0 success, 1 internal invariant violation,
2 precondition failure or a failed LDS check, 3 expression parse error.

Each handler reads the argparse namespace of its subcommand directly. The
constructions from a unit and a beta are reached through _construct alone, and
the ring an option names (--module-basis, else the power basis) through _ring.

json.dumps(indent=2, sort_keys=True) writes each JSON report, and the
columns of decimal text are spliced into it. Such columns are held by a
_Table, the one column type, in one of three row shapes: the term table of
emit-sequence and verify-lds (the columns of coordseq.decimal_columns) as list
rows, the d_k column and the conj9 hits of dk-scan as bare items, and the rows
of its vanishing scan as dicts of named columns: n as a range, y1, d_tilde and
d as decimal text, or d as None. Their items are vouched for as '-' and digits
(rendered through a certified or verified recurrence, else by str(); the d_k
that dkseq's half-index lemma gives are rendered through its recurrence, and
"1" at the k it skips), so they need no escaping, which is
most of what json.dumps would spend on a report.
json.dumps hands each _Table to its default hook, which records it and
returns a NUL string as its marker; _json_text writes each table in place of
its marker. json's pure-Python indent encoder keeps that hook in a reference
cycle until the next collection, so the hook's record releases each table as
it is written; else every column would outlive the report's text. The tables
are written by _write_rows as JSON rows and as text rows, and _csv_text
writes the columns as CSV lines, all through _interleave: one C-level pass
over the whole columns, with one separator per column and no test, escape or
copy per item and no row built as a string, so a report holds each term
string once and its text once. The text is joined once, and the sink opens
only after it is complete; a report and its final newline are written apart,
so no step copies a whole report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from argparse import Namespace
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, NoReturn, Sequence

from . import basisforge, coordseq, dkseq
from .basisforge import LdsConstruction, SnfCriterion
from .exactlinalg import InvariantViolation
from .numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    ParseError,
    format_element,
    format_polynomial,
    min_poly,
    parse_element,
    parse_polynomial,
)

_FORMATS = ("json", "csv", "text")


def _basis_coords(basis: ModuleBasis) -> list[list[str]]:
    return [[str(c) for c in v.coords] for v in basis.vectors]


def _field_from(config: Namespace) -> NumberField:
    if config.field is None:
        raise ValueError("--field is required for this command")
    return NumberField(parse_polynomial(config.field))


def _element(field: NumberField, text: str, what: str) -> FieldElement:
    if text is None:
        raise ValueError(f"--{what} is required for this command")
    return parse_element(field, text)


def _unit_beta(config: Namespace, field: NumberField) -> tuple[FieldElement, FieldElement]:
    """The --unit and the --beta (default 1) of a report, parsed once."""
    beta = "1" if config.beta is None else config.beta
    return _element(field, config.unit, "unit"), _element(field, beta, "beta")


def _head(field: NumberField, unit: FieldElement, beta: FieldElement) -> dict[str, Any]:
    return {
        "field": format_polynomial(field.coeffs),
        "unit": format_element(unit),
        "beta": format_element(beta),
    }


def _ring(config: Namespace, field: NumberField) -> ModuleBasis:
    """The --module-basis basis when one is given, else the power basis."""
    if config.module_basis is None:
        return field.power_basis()
    parts = [p for p in config.module_basis.split(";") if p.strip()]
    return ModuleBasis(field, tuple(parse_element(field, p) for p in parts))


def _construct(
    config: Namespace, method: str, field: NumberField, unit: FieldElement, beta: FieldElement
) -> LdsConstruction:
    """The one dispatch over the constructions from a unit and a beta."""
    if method == "quadratic":
        return basisforge.quad_construct(_ring(config, field), beta, unit)
    if method == "quartic-power":
        return basisforge.quartic_module_construct(beta, unit)
    if method == "quartic-full":
        return basisforge.quartic_full_construct(_ring(config, field), beta, unit)
    raise ValueError(f"unknown method {method!r}")


# a basis coordinate as a report writes it
_COORDINATE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# an integer option or bound, in ASCII digits as the expression tokenizer reads
# them: int() alone also takes other scripts' digits, '_', '+' and spaces
_INTEGER = re.compile(r"-?[0-9]+")


def _basis_from_file(
    path: str, field: NumberField, unit: FieldElement, beta: FieldElement
) -> ModuleBasis:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"basis file {path} nests too deeply to read") from None
    for key in ("field", "basis"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(
                f"basis file {path} is not a construct-basis or family report:"
                f" it has no {key!r} key"
            )
    # a report writes these as strings; the file comes from outside the program
    for key in ("field", "unit", "beta"):
        if key in doc and not isinstance(doc[key], str):
            raise ValueError(f"basis file {path} has a {key!r} that is not a string")
    if NumberField(parse_polynomial(doc["field"])) != field:
        raise ValueError("basis file was produced for a different field")
    # a construct-basis report names the unit and beta its basis was built for;
    # a family report names neither
    for key, given in (("unit", unit), ("beta", beta)):
        if key in doc and parse_element(field, doc[key]) != given:
            raise ValueError(
                f"basis file was built for {key} {doc[key]}, not {format_element(given)}"
            )
    rows = doc["basis"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"basis file {path} has a 'basis' that is not a list of coordinate lists")
    # only the forms a report writes: Fraction would also take exponent notation,
    # and build 10^e in full, in time exponential in the exponent's digits
    for row in rows:
        for c in row:
            if not (type(c) is int or isinstance(c, str) and _COORDINATE.fullmatch(c)):
                raise ValueError(
                    f"basis file {path} has a bad 'basis': coordinate {c!r} is not"
                    " an integer or a fraction p/q"
                )
    try:
        vectors = tuple(field.element([Fraction(c) for c in row]) for row in rows)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"basis file {path} has a bad 'basis': {exc}") from None
    return ModuleBasis(field, vectors)


def _criterion_doc(crit: SnfCriterion) -> dict[str, Any]:
    return {
        "chi": [str(c) for c in crit.chi],
        "deltas": [str(d) for d in crit.deltas],
        "lift_column": [str(c) for c in crit.lift_column],
        # snf_criterion_matrix raises unless the lift is primitive, so the verdict
        # is always true; the key stays for readers of the reports
        "satisfied": True,
        "scale": str(crit.scale),
        "t_trace": str(crit.t_trace),
    }


def _refuse_given(config: Namespace, options: Sequence[str], reason: str) -> None:
    """Refuse, naming it, the first of these options that the command line gave."""
    for option in options:
        if getattr(config, option[2:].replace("-", "_")) is not None:
            raise ValueError(f"{option} {reason}")


def _refuse_csv(config: Namespace) -> None:
    # refused before any work, since the report has no csv form
    if config.fmt == "csv":
        raise ValueError("csv output is not defined for this command")


def _resolve_basis(
    config: Namespace, field: NumberField, unit: FieldElement, beta: FieldElement
) -> tuple[ModuleBasis, dict[str, Any]]:
    """Basis for sequence commands, from a named construction, a file, or expressions."""
    if config.basis is not None:
        _refuse_given(config, ("--module-basis", "--basis-file"), "cannot be combined with --basis")
    if config.basis_file is not None:
        _refuse_given(config, ("--module-basis",), "cannot be combined with --basis-file")
        return _basis_from_file(config.basis_file, field, unit, beta), {"basis_source": "file"}
    if config.module_basis is not None:
        return _ring(config, field), {"basis_source": "explicit"}
    if config.basis in (None, "power"):
        return field.power_basis(), {"basis_source": "power"}
    cons = _construct(config, config.basis, field, unit, beta)
    meta = {"basis_source": config.basis, "scale": str(cons.scale), "t_trace": str(cons.t_trace)}
    return cons.basis, meta


class _Table:
    """(key, column) pairs, written as rows of one shape by _write_rows.

    shape is "{}" for dict rows (keys in this order for --format text, sorted
    in JSON), "[]" for list rows (keys None) or "" for one column's bare items.
    """

    __slots__ = ("pairs", "shape")

    def __init__(self, pairs: Sequence[tuple[str | None, Any]], shape: str) -> None:
        self.pairs = pairs
        self.shape = shape


def _interleave(
    out: list[str], columns: Sequence[Iterable[str]], seps: Sequence[str], after: str = ""
) -> None:
    """Extend out by each row of the columns: each item after its own separator, then after.

    seps holds one separator per column, written before that column's item in
    every row. One C-level pass over whole columns, so each item is referenced,
    not copied, and no Python code runs per row.
    """
    parts: list[Iterable[str]] = []
    for sep, column in zip(seps, columns):
        parts += (repeat(sep), column)
    if after:
        parts.append(repeat(after))
    out.extend(chain.from_iterable(zip(*parts)))


def _write_rows(
    out: list[str], pairs: Iterable[tuple], start: str, between: str, end: str, comma: str, close: str
) -> None:
    """Write (key, column) pairs by _interleave as a list of rows: '[', rows joined by comma, close.

    start opens each row, between separates its entries and end closes it. An
    entry is the item alone when its key is None, else "key": item. A column
    of None is null in every row, a range is its ints, and any other column is
    decimal text, whose quotes go into the separators around it. The rows stop
    at the shortest column; no row at all is written [].
    """
    columns: list[Iterable[str]] = []
    seps: list[str] = []
    quote = ""
    for key, column in pairs:
        sep = quote + (between if seps else start)
        quote = "" if column is None or isinstance(column, range) else '"'
        seps.append(sep + ("" if key is None else encode_basestring_ascii(key) + ": ") + quote)
        columns.append(repeat("null") if column is None else column if quote else map(str, column))
    first = len(out)
    _interleave(out, columns, [comma + seps[0], *seps[1:]], quote + end)
    if len(out) == first:
        out.append("[]")
    else:
        out[first] = "[" + seps[0]
        out.append(close)


# the marker of a _Table, as json.dumps writes the string its default hook returns
_MARKER = json.dumps("\0")


def _json_text(payload: Any) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), each _Table written in place by _write_rows."""
    tables: list[_Table] = []

    def stub(table: _Table) -> str:
        tables.append(table)
        return "\0"

    chunks = json.dumps(payload, indent=2, sort_keys=True, default=stub).split(_MARKER)
    if len(chunks) != len(tables) + 1:
        raise InvariantViolation(f"{len(chunks) - 1} table markers for {len(tables)} tables")
    out = [chunks[0]]
    for before, after in zip(chunks, chunks[1:]):
        # the marker's line: its indent, then '"key": ' in a dict
        line = before[before.rfind("\n") + 1 :]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        # popped as written: json's indent encoder keeps stub alive until the next collection
        table = tables.pop(0)
        inner = newline + "  "
        item = inner + "  "
        pairs = sorted(table.pairs, key=lambda pair: pair[0]) if table.shape == "{}" else table.pairs
        opening, end = (table.shape[0] + item, inner + table.shape[1]) if table.shape else ("", "")
        _write_rows(out, pairs, inner + opening, "," + item, end, ",", newline + "]")
        out.append(after)
    return "".join(out)


def _csv_text(header: str, first: int, columns: Sequence[Sequence[str]]) -> str:
    """header, then a line per row: its index, counting from first, and its items, comma-joined."""
    out = [header]
    indices = map(str, range(first, first + len(columns[0])))
    _interleave(out, (indices, *columns), ["\n"] + [","] * len(columns))
    return "".join(out)


def _emit(
    config: Namespace, payload: dict[str, Any], csv: tuple[str, int, Sequence[Sequence[str]]] | None = None
) -> None:
    """Write the report in config.fmt; csv holds the arguments of _csv_text.

    The sink opens once the text is complete, so a failure leaves no file.
    """
    if config.fmt == "json":
        text = _json_text(payload)
    elif config.fmt == "csv":
        assert csv is not None, "commands without a csv form refuse it first"
        text = _csv_text(*csv)
    else:
        text = _render_text(payload)
    sink = contextlib.nullcontext(sys.stdout)
    with open(config.out, "w", encoding="utf-8") if config.out is not None else sink as fh:
        fh.write(text)
        fh.write("\n")


def _render_text(payload: dict[str, Any], indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, _Table):
            # json.dumps of the rows, a dict row keyed in the table's order
            text: list[str] = []
            _write_rows(text, value.pairs, value.shape[:1], ", ", value.shape[1:], ", ", "]")
            lines.append(f"{pad}{key}: {''.join(text)}")
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _cmd_construct_basis(config: Namespace) -> int:
    _refuse_csv(config)
    payload: dict[str, Any] = {"command": "construct-basis", "method": config.method}
    if config.method == "family":
        family_unread = ("--field", "--unit", "--beta", "--module-basis")
        _refuse_given(config, family_unread, "is not read by --method family")
        if config.m is None:
            raise ValueError("--m is required for the family method")
        cons = basisforge.family_basis(config.m)
        payload["m"] = config.m
        payload["field"] = format_polynomial(cons.basis.field.coeffs)
    else:
        _refuse_given(config, ("--m",), "is read by --method family only")
        if config.method == "quartic-power":
            _refuse_given(config, ("--module-basis",), "is not read by --method quartic-power")
        field = _field_from(config)
        unit, beta = _unit_beta(config, field)
        payload.update(_head(field, unit, beta))
        cons = _construct(config, config.method, field, unit, beta)
    payload["source"] = config.method
    payload["scale"] = str(cons.scale)
    payload["t_trace"] = str(cons.t_trace)
    payload["basis"] = _basis_coords(cons.basis)
    _emit(config, payload)
    return 0


def _sequence_payload(
    config: Namespace, field: NumberField
) -> tuple[dict[str, Any], coordseq.SequenceReport, tuple[str, int, list[list[str]]]]:
    """Report fields shared by the sequence commands, the certified head, and the CSV table."""
    unit, beta = _unit_beta(config, field)
    # refused before a basis is built; a parse error in the unit or beta still comes first
    if config.kmax < 0:
        raise ValueError("kmax must be nonnegative")
    basis, meta = _resolve_basis(config, field, unit, beta)
    # the report needs kmax >= deg(min_poly(unit)), known before any term is
    # generated; that degree is at most the field's, so min_poly runs only for a small kmax
    if 0 <= config.kmax < field.degree and config.kmax < len(min_poly(unit)) - 1:
        raise ValueError("not enough terms to test the recurrence")
    head = coordseq.sequence_head(beta, unit, basis, config.kmax)
    payload = _head(field, unit, beta)
    payload.update(meta)
    payload["basis"] = _basis_coords(basis)
    payload["charpoly"] = [str(c) for c in head.charpoly]
    # sequence_head has certified the recurrence for every term, so rendering
    # through it from the head gives str(x) for each
    terms = coordseq.decimal_columns(head, config.kmax)
    payload["terms"] = _Table(tuple(zip(repeat(None), terms)), "[]")
    # a head whose recurrence fails raises InvariantViolation; the key stays for
    # readers of the reports
    payload["recurrence_ok"] = True
    header = "k," + ",".join(f"x{i}" for i in range(1, len(head.terms) + 1))
    return payload, head, (header, 0, terms)


def _cmd_emit_sequence(config: Namespace) -> int:
    payload, _, csv = _sequence_payload(config, _field_from(config))
    payload["command"] = "emit-sequence"
    _emit(config, payload, csv)
    return 0


def _cmd_verify_lds(config: Namespace) -> int:
    field = _field_from(config)
    # a basis has one column per degree, so --column is checked before any generation
    if not 1 <= config.column <= field.degree:
        raise ValueError(f"--column {config.column} out of range")
    if config.nmax is not None and config.nmax < 1:
        raise ValueError(f"--nmax {config.nmax} must be at least 1")
    if config.nmax is not None and config.nmax > config.kmax:
        raise ValueError("--nmax cannot exceed --kmax")
    payload, head, csv = _sequence_payload(config, field)
    payload["command"] = "verify-lds"
    nmax = config.kmax if config.nmax is None else config.nmax
    verdicts = []
    # one int column at a time, decided from the head or built only as far as
    # its verdict reads it
    for i in range(1, len(head.terms) + 1):
        verdict = coordseq.column_verdict(head, i, nmax)
        verdicts.append(
            {
                "column": i,
                "ok": verdict.ok,
                "witness": list(verdict.witness) if verdict.witness else None,
            }
        )
    payload["nmax"] = nmax
    payload["lds"] = verdicts
    _emit(config, payload, csv)
    return 0 if verdicts[config.column - 1]["ok"] else 2


def _cmd_dk_scan(config: Namespace) -> int:
    field = _field_from(config)
    alpha = _element(field, config.alpha, "alpha")
    ring = _ring(config, field)
    seq = dkseq.dk_sequence(alpha, ring, config.kmax)
    rec_ok: bool | None = None
    if seq.head is not None:
        # the half-index lemma: d_(step j) follow the head's recurrence, so rendering
        # through it gives str() of each, by induction; every other d_k is 1, and
        # T's recurrence holds exactly when T > 0 or no k has k + 4 <= kmax
        rec_ok = None if seq.t_trace is None else (seq.t_trace > 0 or config.kmax <= 4)
        step, terms = seq.step, ["1"] * config.kmax
        terms[step - 1 :: step] = coordseq.decimal_columns(seq.head, config.kmax // step)[0][1:]
    else:
        with contextlib.suppress(dkseq.CheckRefused):
            report = dkseq.recurrence_report(seq)
            rec_ok = dkseq.dk_recurrence_check(report)
        # a checked recurrence renders the terms as above
        terms = (coordseq.decimal_columns(report, report.kmax)[0] if rec_ok
                 else list(map(str, seq.terms)))
    payload: dict[str, Any] = {
        "command": "dk-scan",
        "field": format_polynomial(field.coeffs),
        "alpha": format_element(alpha),
        "ring": [format_element(v) for v in ring.vectors],
        "terms": _Table(((None, terms),), ""),
        "recurrence_ok": rec_ok,
        "conj9_hits": _Table(((None, list(map(str, dkseq.dk_level_scan(seq)))),), ""),
    }
    if config.vanishing_t is not None:
        scan = dkseq.sparse_minpoly_scan(field, config.vanishing_t, config.kmax)
        d_tilde = list(map(str, scan.d_tilde))
        rows = ("n", scan.n), ("y1", list(map(str, scan.y1))), ("d_tilde", d_tilde)
        payload["vanishing"] = {
            "t": config.vanishing_t,
            "disc": str(scan.disc),
            "monogenic_asserted": config.assert_monogenic,
            "all_vanish": scan.all_vanish(),
            "rows": _Table((*rows, ("d", d_tilde if config.assert_monogenic else None)), "{}"),
        }
    _emit(config, payload, ("k,dk", 1, (terms,)))
    return 0


def _parse_m_range(spec: str) -> range:
    if ".." not in spec:
        raise ParseError("m range must look like 2..10", 0)
    lo_text, hi_text = spec.split("..", 1)
    if not (_INTEGER.fullmatch(lo_text) and _INTEGER.fullmatch(hi_text)):
        raise ParseError(f"bad m range {spec!r}", 0)
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise ValueError(f"m range {spec} is empty")
    if lo < 2:
        raise ValueError(f"m range {spec} starts below 2, where the family begins")
    return range(lo, hi + 1)


def _cmd_family_scan(config: Namespace) -> int:
    m_range = _parse_m_range(config.m_range)
    # each row reports the initial conditions x1(0..3)
    if config.kmax < 3:
        raise ValueError(f"--kmax {config.kmax} must be at least 3")
    rows = []
    any_fail = False
    for m in m_range:
        try:
            cons = basisforge.family_basis(m)
        except ValueError as exc:
            rows.append({"m": m, "status": "rejected", "reason": str(exc)})
            continue
        field = cons.basis.field
        # the generator's minimal polynomial is the field polynomial
        head = coordseq.sequence_head(
            field.one, field.generator, cons.basis, config.kmax, charpoly=field.coeffs
        )
        verdict = coordseq.column_verdict(head, 1, config.kmax)
        if not verdict.ok:
            any_fail = True
        rows.append(
            {
                "m": m,
                "status": "ok",
                "scale": str(cons.scale),
                "t_trace": str(cons.t_trace),
                "ics": [str(x) for x in head.terms[0][:4]],
                "lds_ok": verdict.ok,
                "witness": list(verdict.witness) if verdict.witness else None,
            }
        )
    payload = {"command": "family-scan", "kmax": config.kmax, "rows": rows}
    # one row per m of the range, in order
    csv = [[r["status"] for r in rows], [str(r.get("lds_ok", "")) for r in rows]]
    _emit(config, payload, ("m,status,lds_ok", m_range.start, csv))
    return 2 if any_fail else 0


def _cmd_snf_check(config: Namespace) -> int:
    _refuse_csv(config)
    field = _field_from(config)
    unit, beta = _unit_beta(config, field)
    crit = basisforge.snf_criterion(_ring(config, field), beta, unit)
    payload = {"command": "snf-check", **_head(field, unit, beta)}
    payload["criterion"] = _criterion_doc(crit)
    _emit(config, payload)
    return 0


_COMMANDS = {
    "construct-basis": _cmd_construct_basis,
    "emit-sequence": _cmd_emit_sequence,
    "verify-lds": _cmd_verify_lds,
    "dk-scan": _cmd_dk_scan,
    "family-scan": _cmd_family_scan,
    "snf-check": _cmd_snf_check,
}


# options whose value is an element; a value that starts with '-' needs the '=' form
_ELEMENT_OPTIONS = ("--unit", "--beta", "--alpha")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        for option in _ELEMENT_OPTIONS:
            if message == f"argument {option}: expected one argument":
                message += (
                    f"\nhint: a value that starts with '-' needs the '=' form, as in {option}=-2-t"
                )
        super().error(message)


def _integer(text: str) -> int:
    """The type of every int option: text must match _INTEGER."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normlds",
        description="Exact constructions and checks for divisibility-friendly "
        "coordinate sequences of norm-form solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, bounds: bool = True, unit_beta: bool = True) -> None:
        p.add_argument("--field", help="defining polynomial in x, e.g. 'x^4-10x^2+1'")
        if unit_beta:
            p.add_argument(
                "--unit",
                help="unit element in t, e.g. 't' or '3+2t'; a negative one as --unit=-2-t",
            )
            p.add_argument(
                "--beta", help="module element in t (default 1); a negative one as --beta=-2-t"
            )
        p.add_argument("--module-basis", help="semicolon-separated basis elements in t")
        if bounds:
            p.add_argument("--kmax", type=_integer, default=200, help="terms to generate")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p = sub.add_parser("construct-basis", help="build an LDS-friendly basis")
    common(p, bounds=False)
    p.add_argument(
        "--method",
        choices=("quadratic", "quartic-power", "quartic-full", "family"),
        default="quartic-power",
    )
    p.add_argument("--m", type=_integer, help="family parameter (method=family)")

    for name, text in (
        ("emit-sequence", "generate coordinate sequences"),
        ("verify-lds", "divisor-pair scan of the coordinate columns"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--basis", choices=("power", "quartic-power", "quartic-full"))
        p.add_argument("--basis-file", help="JSON basis report to reuse")
        if name == "verify-lds":
            p.add_argument("--nmax", type=_integer, help="divisor pairs bound (default kmax)")
            p.add_argument("--column", type=_integer, default=1, help="column deciding the exit code")

    p = sub.add_parser("dk-scan", help="congruence sequence d_k and related scans")
    common(p, unit_beta=False)
    p.add_argument(
        "--alpha", help="element whose powers are scanned (in t); a negative one as --alpha=-2-t"
    )
    p.add_argument("--vanishing-t", type=_integer, help="lacunary step for the vanishing scan")
    p.add_argument("--assert-monogenic", action="store_true")

    p = sub.add_parser("family-scan", help="scan the sqrt(m), sqrt(m+1) module family")
    p.add_argument("--m-range", required=True, help="inclusive range, e.g. 2..10")
    p.add_argument("--kmax", type=_integer, default=200)
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="json")
    p.add_argument("--out")

    p = sub.add_parser("snf-check", help="full-module construction criterion")
    common(p, bounds=False)

    return parser


def run(config: Namespace) -> int:
    """Execute one command parsed by build_parser; deterministic output, documented exit codes."""
    try:
        return _COMMANDS[config.command](config)
    except ParseError as exc:
        sys.stderr.write(f"parse error {exc}\n")
        return 3
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    # building the parser costs more than a small report, so it is built once per
    # process; lazily, so that importing the module stays cheap. parse_args leaves
    # the parser unchanged and returns a new namespace, so calls share nothing else
    if _parser is None:
        _parser = build_parser()
    namespace = _parser.parse_args(argv)
    # terms grow past the interpreter's int-to-str digit limit; lift it for this
    # call only, since main also runs inside other programs
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters older than the limit
        return run(namespace)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return run(namespace)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
