"""Batch command line interface.

Subcommands: construct-basis, emit-sequence, verify-lds, dk-scan, family-scan,
snf-check. Reports are deterministic (byte-identical for identical inputs);
integers are serialized as decimal strings so arbitrary precision survives
JSON consumers. Exit codes: 0 success, 1 internal invariant violation,
2 precondition or criterion failure, 3 expression parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import basisforge, coordseq, dkseq
from .basisforge import InvariantViolation, LdsConstruction, SnfCriterion
from .numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    ParseError,
    format_element,
    format_polynomial,
    parse_element,
    parse_polynomial,
)

_FORMATS = ("json", "csv", "text")


@dataclass
class RunConfig:
    command: str
    field: str | None = None
    unit: str | None = None
    beta: str | None = None
    alpha: str | None = None
    module_basis: str | None = None
    basis: str | None = None
    basis_file: str | None = None
    method: str | None = None
    m: int | None = None
    m_range: str | None = None
    kmax: int = 200
    nmax: int | None = None
    column: int = 1
    vanishing_t: int | None = None
    assert_monogenic: bool = False
    fmt: str = "json"
    out: str | None = None


def _rat_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _basis_coords(basis: ModuleBasis) -> list[list[str]]:
    return [[_rat_str(c) for c in v.coords] for v in basis.vectors]


def _parse_rat(text: str) -> Fraction:
    return Fraction(text)


def _field_from(config: RunConfig) -> NumberField:
    if not config.field:
        raise ValueError("--field is required for this command")
    return NumberField(parse_polynomial(config.field, "x"))


def _element(field: NumberField, text: str, what: str) -> FieldElement:
    if text is None:
        raise ValueError(f"--{what} is required for this command")
    return parse_element(field, text, "t")


def _module_basis(field: NumberField, spec: str) -> ModuleBasis:
    parts = [p for p in spec.split(";") if p.strip()]
    vectors = tuple(parse_element(field, p, "t") for p in parts)
    return ModuleBasis(field, vectors)


def _basis_from_file(path: str) -> tuple[NumberField, ModuleBasis]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    field = NumberField(parse_polynomial(doc["field"], "x"))
    vectors = tuple(
        field.element([_parse_rat(c) for c in row]) for row in doc["basis"]
    )
    return field, ModuleBasis(field, vectors)


def _criterion_doc(crit: SnfCriterion) -> dict[str, Any]:
    return {
        "chi": [str(c) for c in crit.chi],
        "deltas": [str(d) for d in crit.deltas],
        "lift_column": [str(c) for c in crit.lift_column],
        "satisfied": crit.satisfied,
        "scale": str(crit.scale),
        "t_trace": str(crit.t_trace),
    }


def _resolve_basis(config: RunConfig, field: NumberField) -> tuple[ModuleBasis, dict[str, Any]]:
    """Basis for sequence commands, from a named construction, a file, or expressions."""
    meta: dict[str, Any] = {}
    if config.basis_file:
        bfield, basis = _basis_from_file(config.basis_file)
        if bfield != field:
            raise ValueError("basis file was produced for a different field")
        meta["basis_source"] = "file"
        return basis, meta
    if config.module_basis:
        meta["basis_source"] = "explicit"
        return _module_basis(field, config.module_basis), meta
    name = config.basis or "power"
    if name == "power":
        meta["basis_source"] = "power"
        return field.power_basis(), meta
    unit = _element(field, config.unit, "unit")
    beta = _element(field, config.beta or "1", "beta")
    if name == "quartic-power":
        cons = basisforge.quartic_module_construct(beta, unit)
    elif name == "quartic-full":
        result = basisforge.quartic_full_construct(field.power_basis(), beta, unit)
        if isinstance(result, SnfCriterion):
            raise _CriterionFailure(result)
        cons = result
    else:
        raise ValueError(f"unknown basis kind {name!r}")
    meta["basis_source"] = name
    meta["scale"] = str(cons.scale)
    meta["t_trace"] = str(cons.t_trace)
    return cons.basis, meta


class _CriterionFailure(Exception):
    def __init__(self, crit: SnfCriterion):
        super().__init__("construction criterion failed")
        self.crit = crit


def _emit(config: RunConfig, payload: dict[str, Any], csv_lines: list[str] | None = None) -> None:
    if config.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.fmt == "csv":
        if csv_lines is None:
            raise ValueError("csv output is not defined for this command")
        text = "\n".join(csv_lines) + "\n"
    else:
        text = _render_text(payload) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(payload: dict[str, Any], indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _cmd_construct_basis(config: RunConfig) -> int:
    method = config.method or "quartic-power"
    if method == "family":
        if config.m is None:
            raise ValueError("--m is required for the family method")
        cons = basisforge.family_basis(config.m)
        field = cons.basis.field
        payload = {
            "command": "construct-basis",
            "method": method,
            "m": config.m,
            "field": format_polynomial(field.coeffs, "x"),
        }
    else:
        field = _field_from(config)
        unit = _element(field, config.unit, "unit")
        beta = _element(field, config.beta or "1", "beta")
        payload = {
            "command": "construct-basis",
            "method": method,
            "field": format_polynomial(field.coeffs, "x"),
            "unit": format_element(unit),
            "beta": format_element(beta),
        }
        if method == "quadratic":
            tbasis = (
                _module_basis(field, config.module_basis)
                if config.module_basis
                else field.power_basis()
            )
            cons = basisforge.quad_construct(tbasis, beta, unit)
        elif method == "quartic-power":
            cons = basisforge.quartic_module_construct(beta, unit)
        elif method == "quartic-full":
            tbasis = (
                _module_basis(field, config.module_basis)
                if config.module_basis
                else field.power_basis()
            )
            result = basisforge.quartic_full_construct(tbasis, beta, unit)
            if isinstance(result, SnfCriterion):
                payload["criterion"] = _criterion_doc(result)
                _emit(config, payload)
                return 2
            cons = result
        else:
            raise ValueError(f"unknown method {method!r}")
    payload["source"] = cons.source
    payload["scale"] = str(cons.scale)
    payload["t_trace"] = str(cons.t_trace)
    payload["basis"] = _basis_coords(cons.basis)
    _emit(config, payload)
    return 0


def _sequence_payload(
    config: RunConfig, field: NumberField
) -> tuple[dict[str, Any], coordseq.SequenceReport, list[str] | None]:
    """Report fields shared by the sequence commands, and CSV lines when CSV is asked for."""
    unit = _element(field, config.unit, "unit")
    beta = _element(field, config.beta or "1", "beta")
    basis, meta = _resolve_basis(config, field)
    report = coordseq.generate(beta, unit, basis, config.kmax)
    terms = [[str(x) for x in row] for row in report.terms]
    payload: dict[str, Any] = {
        "field": format_polynomial(field.coeffs, "x"),
        "unit": format_element(unit),
        "beta": format_element(beta),
        "basis": _basis_coords(basis),
        "charpoly": [str(c) for c in report.charpoly],
        "terms": terms,
        "recurrence_ok": coordseq.verify_recurrence(report),
    }
    payload.update(meta)
    csv_lines = None
    if config.fmt == "csv":
        header = "k," + ",".join(f"x{i}" for i in range(1, report.ncols + 1))
        csv_lines = [header] + [f"{k}," + ",".join(row) for k, row in enumerate(terms)]
    return payload, report, csv_lines


def _cmd_emit_sequence(config: RunConfig) -> int:
    payload, _, csv_lines = _sequence_payload(config, _field_from(config))
    payload["command"] = "emit-sequence"
    _emit(config, payload, csv_lines)
    return 0


def _cmd_verify_lds(config: RunConfig) -> int:
    field = _field_from(config)
    # a basis has one column per degree, so --column is checked before any generation
    if not 1 <= config.column <= field.degree:
        raise ValueError(f"--column {config.column} out of range")
    if config.nmax is not None and config.nmax < 1:
        raise ValueError(f"--nmax {config.nmax} must be at least 1")
    payload, report, csv_lines = _sequence_payload(config, field)
    payload["command"] = "verify-lds"
    nmax = report.kmax if config.nmax is None else config.nmax
    if nmax > report.kmax:
        raise ValueError("--nmax cannot exceed --kmax")
    verdicts = []
    for i in range(1, report.ncols + 1):
        verdict = coordseq.verify_lds(report.column(i), nmax)
        verdicts.append(
            {
                "column": i,
                "ok": verdict.ok,
                "witness": list(verdict.witness) if verdict.witness else None,
            }
        )
    payload["nmax"] = nmax
    payload["lds"] = verdicts
    _emit(config, payload, csv_lines)
    return 0 if verdicts[config.column - 1]["ok"] else 2


def _cmd_dk_scan(config: RunConfig) -> int:
    field = _field_from(config)
    alpha = _element(field, config.alpha or config.unit, "alpha")
    ring = (
        _module_basis(field, config.module_basis)
        if config.module_basis
        else field.power_basis()
    )
    seq = dkseq.dk_sequence(alpha, ring, config.kmax)
    try:
        rec_ok: bool | None = dkseq.dk_recurrence_check(seq, config.kmax)
    except dkseq.CheckRefused:
        rec_ok = None
    level = dkseq.dk_level_scan(seq)
    terms = [str(x) for x in seq.terms]
    payload: dict[str, Any] = {
        "command": "dk-scan",
        "field": format_polynomial(field.coeffs, "x"),
        "alpha": format_element(alpha),
        "ring": [format_element(v) for v in ring.vectors],
        "terms": terms,
        "recurrence_ok": rec_ok,
        "conj9_hits": [str(k) for k in level.hits],
    }
    if config.vanishing_t is not None:
        scan = dkseq.sparse_minpoly_scan(
            field, config.vanishing_t, config.kmax, config.assert_monogenic
        )
        payload["vanishing"] = {
            "t": scan.t,
            "disc": str(scan.disc),
            "monogenic_asserted": scan.monogenic_asserted,
            "all_vanish": scan.all_vanish(),
            "rows": [
                {"n": r.n, "y1": str(r.y1), "d_tilde": str(r.d_tilde), "d": None if r.d is None else str(r.d)}
                for r in scan.rows
            ],
        }
    csv_lines = None
    if config.fmt == "csv":
        csv_lines = ["k,dk"] + [f"{k},{x}" for k, x in enumerate(terms, 1)]
    _emit(config, payload, csv_lines)
    return 0


def _parse_m_range(spec: str) -> list[int]:
    if ".." not in spec:
        raise ParseError("m range must look like 2..10", 0)
    lo_text, hi_text = spec.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ParseError(f"bad m range {spec!r}", 0) from None
    return list(range(lo, hi + 1))


def _cmd_family_scan(config: RunConfig) -> int:
    if not config.m_range:
        raise ValueError("--m-range is required")
    ms = _parse_m_range(config.m_range)
    rows = []
    any_fail = False
    for m in sorted(ms):
        try:
            cons = basisforge.family_basis(m)
        except ValueError as exc:
            rows.append({"m": m, "status": "rejected", "reason": str(exc)})
            continue
        field = cons.basis.field
        report = coordseq.generate(field.one, field.generator, cons.basis, config.kmax)
        x1 = report.column(1)
        verdict = coordseq.verify_lds(x1, config.kmax)
        if not verdict.ok:
            any_fail = True
        rows.append(
            {
                "m": m,
                "status": "ok",
                "scale": str(cons.scale),
                "t_trace": str(cons.t_trace),
                "ics": [str(x) for x in x1[:4]],
                "lds_ok": verdict.ok,
                "witness": list(verdict.witness) if verdict.witness else None,
            }
        )
    payload = {"command": "family-scan", "kmax": config.kmax, "rows": rows}
    csv_lines = ["m,status,lds_ok"] + [
        f"{r['m']},{r['status']},{r.get('lds_ok', '')}" for r in rows
    ]
    _emit(config, payload, csv_lines)
    return 2 if any_fail else 0


def _cmd_snf_check(config: RunConfig) -> int:
    field = _field_from(config)
    unit = _element(field, config.unit, "unit")
    beta = _element(field, config.beta or "1", "beta")
    tbasis = (
        _module_basis(field, config.module_basis)
        if config.module_basis
        else field.power_basis()
    )
    crit = basisforge.snf_criterion(tbasis, beta, unit)
    payload = {
        "command": "snf-check",
        "field": format_polynomial(field.coeffs, "x"),
        "unit": format_element(unit),
        "beta": format_element(beta),
        "criterion": _criterion_doc(crit),
    }
    _emit(config, payload)
    return 0 if crit.satisfied else 2


_COMMANDS = {
    "construct-basis": _cmd_construct_basis,
    "emit-sequence": _cmd_emit_sequence,
    "verify-lds": _cmd_verify_lds,
    "dk-scan": _cmd_dk_scan,
    "family-scan": _cmd_family_scan,
    "snf-check": _cmd_snf_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlds",
        description="Exact constructions and checks for divisibility-friendly "
        "coordinate sequences of norm-form solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, bounds: bool = True) -> None:
        p.add_argument("--field", help="defining polynomial in x, e.g. 'x^4-10x^2+1'")
        p.add_argument("--unit", help="unit element in t, e.g. 't' or '3+2t'")
        p.add_argument("--beta", help="module element in t (default 1)")
        p.add_argument("--module-basis", help="semicolon-separated basis elements in t")
        if bounds:
            p.add_argument("--kmax", type=int, default=200, help="terms to generate")
            p.add_argument("--nmax", type=int, help="divisor pairs bound (default kmax)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS, default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p = sub.add_parser("construct-basis", help="build an LDS-friendly basis")
    common(p)
    p.add_argument(
        "--method",
        choices=("quadratic", "quartic-power", "quartic-full", "family"),
        default="quartic-power",
    )
    p.add_argument("--m", type=int, help="family parameter (method=family)")

    p = sub.add_parser("emit-sequence", help="generate coordinate sequences")
    common(p)
    p.add_argument("--basis", choices=("power", "quartic-power", "quartic-full"))
    p.add_argument("--basis-file", help="JSON basis report to reuse")

    p = sub.add_parser("verify-lds", help="divisor-pair scan of the coordinate columns")
    common(p)
    p.add_argument("--basis", choices=("power", "quartic-power", "quartic-full"))
    p.add_argument("--basis-file", help="JSON basis report to reuse")
    p.add_argument("--column", type=int, default=1, help="column deciding the exit code")

    p = sub.add_parser("dk-scan", help="congruence sequence d_k and related scans")
    common(p)
    p.add_argument("--alpha", help="element whose powers are scanned (in t)")
    p.add_argument("--vanishing-t", type=int, help="lacunary step for the vanishing scan")
    p.add_argument("--assert-monogenic", action="store_true")

    p = sub.add_parser("family-scan", help="scan the sqrt(m), sqrt(m+1) module family")
    p.add_argument("--m-range", required=True, help="inclusive range, e.g. 2..10")
    p.add_argument("--kmax", type=int, default=200)
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="json")
    p.add_argument("--out")

    p = sub.add_parser("snf-check", help="full-module construction criterion")
    common(p, bounds=False)

    return parser


def config_from_args(namespace: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(namespace).items() if v is not None}
    fields["module_basis"] = fields.pop("module_basis", None)
    return RunConfig(**{k: v for k, v in fields.items() if k in RunConfig.__dataclass_fields__})


def run(config: RunConfig) -> int:
    """Execute one command; deterministic output, documented exit codes."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    try:
        return handler(config)
    except _CriterionFailure as exc:
        sys.stderr.write("criterion failed; diagnostics follow\n")
        _emit(config, {"command": config.command, "criterion": _criterion_doc(exc.crit)})
        return 2
    except ParseError as exc:
        sys.stderr.write(f"parse error {exc}\n")
        return 3
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    namespace = build_parser().parse_args(argv)
    # terms grow past the interpreter's int-to-str digit limit; lift it for this
    # call only, since main also runs inside other programs
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters older than the limit
        return run(config_from_args(namespace))
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return run(config_from_args(namespace))
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
