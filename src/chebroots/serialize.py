"""Machine-readable report documents: JSON, CSV (RFC 4180), and plain text.

Numbers serialize as Python's shortest round-trip decimal form of the
underlying binary64 value, so a parsed document reproduces the in-memory
report bit for bit.  Every document embeds the config and a format version.
A report or sweep JSON document is the text ``json.dumps(..., indent=2)``
writes for its dict, byte for byte, but built from per-schema templates
instead of json's pure-Python indenting encoder.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields

from .rootfinder import RejectionReason, RootCandidate, RootConfig, RootReport

__all__ = [
    "FORMAT_VERSION",
    "config_to_dict",
    "config_from_dict",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "sweep_to_json",
    "sweep_to_csv",
    "report_to_text",
    "write_csv_rows",
    "format_cell",
    "json_number",
]

FORMAT_VERSION = 6

# a candidate's keys in a JSON document and its CSV columns, in the order of _candidate_values
_CANDIDATE_COLUMNS = ["re", "im", "accepted", "reason", "residual", "polish_iterations", "mapped"]

# the keys of a document, in report_to_dict's order
_REPORT_FIELDS = ["version", "config", "degree_used", "proxy_converged", "roots", "candidates", "decay",
                  "function_evaluations"]
_REPORT_KEYS = set(_REPORT_FIELDS)
_CANDIDATE_KEYS = set(_CANDIDATE_COLUMNS)

_REASONS = {reason.value: reason for reason in RejectionReason}


def _has_keys(data, keys: set, what: str) -> None:
    """``ValueError`` unless ``data`` is an object with exactly ``keys``."""
    if not isinstance(data, dict) or data.keys() != keys:
        got = sorted(data) if isinstance(data, dict) else data
        raise ValueError(f"{what} must have exactly the keys {sorted(keys)}, got {got!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a finite number: no bool, NaN, infinity or int past the float range."""
    return isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= sys.float_info.max


def _are_real(values: list) -> bool:
    """Whether :func:`_is_real` holds for every item of ``values``, checked by
    C-level passes over the list instead of one call per item."""
    try:
        return (all(issubclass(kind, (int, float)) and kind is not bool for kind in set(map(type, values)))
                and all(map(math.isfinite, values))
                # an int just past the float range rounds to the largest float
                and -sys.float_info.max <= min(values, default=0.0)
                and max(values, default=0.0) <= sys.float_info.max)
    except OverflowError:  # an int that rounds past the float range
        return False


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def config_to_dict(config: RootConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> RootConfig:
    """The config ``data`` describes; ``ValueError`` unless it has exactly the valid fields of a RootConfig."""
    _has_keys(data, {field.name for field in fields(RootConfig)}, "config")
    return RootConfig(**data)


def _candidate_values(cand: RootCandidate) -> tuple:
    """The candidate's values, in the order of ``_CANDIDATE_COLUMNS``."""
    return (cand.standard_coord.real, cand.standard_coord.imag, cand.accepted, cand.rejection_reason.value,
            cand.residual, cand.polish_iterations, cand.mapped_coord)


def _candidate_to_dict(cand: RootCandidate) -> dict:
    return dict(zip(_CANDIDATE_COLUMNS, _candidate_values(cand)))


def _candidate_from_dict(data: dict) -> RootCandidate:
    """The candidate ``data`` describes; its ``accepted`` must agree with its
    ``reason`` (:class:`RootReport` holds its ``mapped`` to that reason)."""
    _has_keys(data, _CANDIDATE_KEYS, "candidate")
    reason = data["reason"]
    if type(reason) is not str or reason not in _REASONS:  # an unhashable reason is no TypeError
        raise ValueError(f"candidate reason {reason!r} is none of {sorted(_REASONS)}")
    reason = _REASONS[reason]
    residual, mapped = data["residual"], data["mapped"]
    if not (_is_real(data["re"]) and _is_real(data["im"]) and type(data["accepted"]) is bool
            and (residual is None or _is_real(residual) and residual >= 0.0)
            and _is_count(data["polish_iterations"]) and (mapped is None or _is_real(mapped))):
        raise ValueError(f"candidate {data!r} has a value of the wrong type or sign")
    if data["accepted"] is not (reason is RejectionReason.NONE):
        raise ValueError(f"candidate {data!r} contradicts its reason {reason.value!r}")
    return RootCandidate(
        standard_coord=complex(data["re"], data["im"]),
        mapped_coord=mapped,
        rejection_reason=reason,
        residual=residual,
        polish_iterations=data["polish_iterations"],
    )


def report_to_dict(report: RootReport) -> dict:
    return {
        "version": FORMAT_VERSION,
        "config": config_to_dict(report.config),
        "degree_used": report.degree_used,
        "proxy_converged": report.proxy_converged,
        "roots": list(report.roots),
        "candidates": [_candidate_to_dict(c) for c in report.candidates],
        "decay": list(report.coefficient_decay),
        "function_evaluations": report.function_evaluations,
    }


def report_from_dict(data: dict) -> tuple[RootConfig, RootReport]:
    """``(report.config, report)`` for the report a document describes.

    ``ValueError`` if its version is not the int ``FORMAT_VERSION``, an
    object in it lacks a key or has one too many, a value (a root included)
    has the wrong type or sign or is no finite number, a candidate's
    ``reason`` is no :class:`RejectionReason` value, its ``roots`` or any
    ``accepted`` contradicts its candidates, its ``degree_used`` is not its
    number of decay magnitudes, its ``function_evaluations`` is below that
    number (a run evaluates f at each node of its final rung), or
    :class:`RootReport` refuses its node count and ``proxy_converged`` as no
    run of its config could end on them, or a candidate's ``mapped`` as
    contradicting its reason.
    """
    if isinstance(data, dict) and not (type(data.get("version")) is int and data["version"] == FORMAT_VERSION):
        raise ValueError(f"unsupported report version {data.get('version')!r}")
    _has_keys(data, _REPORT_KEYS, "report")
    decay = data["decay"]
    if not (_is_count(data["degree_used"]) and _is_count(data["function_evaluations"])
            and type(data["proxy_converged"]) is bool and type(data["candidates"]) is list
            and type(data["roots"]) is list and _are_real(data["roots"])):
        raise ValueError("report has a value of the wrong type or sign")
    if not (type(decay) is list and _are_real(decay) and min(decay, default=0.0) >= 0.0):
        raise ValueError("decay must be a list of non-negative finite magnitudes")
    config = config_from_dict(data["config"])
    if data["degree_used"] != len(decay):
        raise ValueError(f"degree_used {data['degree_used']} differs from the {len(decay)} decay magnitudes")
    if data["function_evaluations"] < len(decay):
        raise ValueError(f"{data['function_evaluations']} evaluations cannot sample {len(decay)} nodes")
    report = RootReport(
        candidates=tuple(_candidate_from_dict(c) for c in data["candidates"]),
        coefficient_decay=tuple(decay),
        function_evaluations=data["function_evaluations"],
        proxy_converged=data["proxy_converged"],
        config=config,
    )
    if tuple(data["roots"]) != report.roots:
        raise ValueError("report roots differ from its accepted candidates")
    return report.config, report


def _literal(value) -> str:
    """The JSON text json.dumps writes for None, a bool, or a finite float or int."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return repr(value)


def _object_template(keys, depth: int) -> str:
    """An indent-2 JSON object at nesting ``depth`` with ``keys``, a ``%s`` slot for each value."""
    pad = "\n" + "  " * (depth + 1)
    return "{" + ",".join(f'{pad}"{key}": %s' for key in keys) + "\n" + "  " * depth + "}"


def _array(items: list[str], depth: int) -> str:
    """An indent-2 JSON array at nesting ``depth`` of the already written ``items``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


_REPORT_JSON = _object_template(_REPORT_FIELDS, 0)
_CONFIG_JSON = _object_template([field.name for field in fields(RootConfig)], 1)
_CANDIDATE_JSON = _object_template(_CANDIDATE_COLUMNS, 2)
_SWEEP_JSON = _object_template(["version", "function", "interval", "sweeps"], 0)


def _candidate_json(cand: RootCandidate) -> str:
    """The candidate's object in a report document, at its nesting depth."""
    re, im, accepted, reason, residual, iterations, mapped = _candidate_values(cand)
    # a reason is a lower-case name, which JSON needs no escape for
    return _CANDIDATE_JSON % (repr(re), repr(im), "true" if accepted else "false", f'"{reason}"',
                              _literal(residual), iterations, _literal(mapped))


def report_to_json(report: RootReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``, byte for byte.

    Each number is written as its ``repr``, which is json's text for a
    finite float or int: the only numbers a report from :func:`find_roots`
    or :func:`report_from_dict` holds.
    """
    config = config_to_dict(report.config).values()
    return _REPORT_JSON % (
        FORMAT_VERSION, _CONFIG_JSON % tuple(map(_literal, config)), report.degree_used,
        _literal(report.proxy_converged),
        _array(list(map(repr, report.roots)), 1),
        _array(list(map(_candidate_json, report.candidates)), 1),
        _array(list(map(repr, report.coefficient_decay)), 1),
        report.function_evaluations,
    )


def report_from_json(text: str) -> tuple[RootConfig, RootReport]:
    return report_from_dict(json.loads(text))


def format_cell(value) -> str:
    """CSV cell: shortest round-trip decimals for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def json_number(value):
    """``value``, or None (JSON null) in place of a non-finite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_csv_rows(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _candidate_row(cand: RootCandidate) -> list[str]:
    return [format_cell(v) for v in _candidate_values(cand)]


def report_to_csv(report: RootReport) -> str:
    """One candidate per row; accepted rows carry the mapped root location."""
    return write_csv_rows(_CANDIDATE_COLUMNS, [_candidate_row(c) for c in report.candidates])


def sweep_to_json(function: str, interval, reports: list[RootReport]) -> str:
    """The document ``{version, function, interval, sweeps}`` of a sweep of
    ``function`` on the :class:`Interval` ``interval``, as ``json.dumps(...,
    indent=2)`` writes it: each ``sweeps`` entry is :func:`report_to_json`'s
    text of its report, indented to its depth."""
    # json escapes a newline in a string, so every newline of a report's text is layout
    return _SWEEP_JSON % (FORMAT_VERSION, json.dumps(function), _array([repr(interval.a), repr(interval.b)], 1),
                          _array([report_to_json(r).replace("\n", "\n    ") for r in reports], 1))


def sweep_to_csv(reports: list[RootReport]) -> str:
    """One row per (degree, candidate) across a sweep of fixed-degree reports."""
    rows = [[format_cell(r.config.degree)] + _candidate_row(c) for r in reports for c in r.candidates]
    return write_csv_rows(["degree"] + _CANDIDATE_COLUMNS, rows)


def report_to_text(report: RootReport) -> str:
    lines = [
        f"degree used: {report.degree_used}"
        + ("" if report.proxy_converged else "  (proxy did not converge)"),
        f"function evaluations: {report.function_evaluations}",
        f"candidates: {len(report.candidates)}"
        + f" ({sum(1 for c in report.candidates if c.accepted)} accepted)",
        f"roots ({len(report.roots)}):",
    ]
    lines.extend(f"  {r!r}" for r in report.roots)
    rejected = [c for c in report.candidates if not c.accepted]
    if rejected:
        lines.append("rejected candidates:")
        for c in rejected:
            lines.append(
                f"  {c.standard_coord.real!r} {c.standard_coord.imag:+g}i"
                f"  [{c.rejection_reason.value}]"
            )
    config = report.config
    if config.residual_tol is not None:  # applied with and without polish
        lines.append(f"residual test: |f(x)| <= {config.residual_tol!r}")
    elif config.polish:
        lines.append("residual test: automatic")
    else:
        lines.append("residual test: none (unpolished, so the roots are unvetted proxy roots)")
    return "\n".join(lines) + "\n"
