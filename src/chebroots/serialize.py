"""Machine-readable report documents: JSON, CSV (RFC 4180), and plain text.

Numbers serialize as Python's shortest round-trip decimal form of the
underlying binary64 value, so a parsed document reproduces the in-memory
report bit for bit.  Every document embeds the config and a format version.
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
    "sweep_to_csv",
    "report_to_text",
    "write_csv_rows",
    "format_cell",
    "json_number",
]

FORMAT_VERSION = 6

# a candidate's CSV columns: the keys of _candidate_to_dict, in its order
_CANDIDATE_COLUMNS = ["re", "im", "accepted", "reason", "residual", "polish_iterations", "mapped"]

# the keys of a document and of each of its candidates
_REPORT_KEYS = {"version", "config", "degree_used", "proxy_converged", "roots", "candidates", "decay",
                "function_evaluations"}
_CANDIDATE_KEYS = set(_CANDIDATE_COLUMNS)


def _has_keys(data, keys: set, what: str) -> None:
    """``ValueError`` unless ``data`` is an object with exactly ``keys``."""
    if not isinstance(data, dict) or data.keys() != keys:
        got = sorted(data) if isinstance(data, dict) else data
        raise ValueError(f"{what} must have exactly the keys {sorted(keys)}, got {got!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a finite number: no bool, NaN, infinity or int past the float range."""
    return isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def config_to_dict(config: RootConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> RootConfig:
    """The config ``data`` describes; ``ValueError`` unless it has exactly the valid fields of a RootConfig."""
    _has_keys(data, {field.name for field in fields(RootConfig)}, "config")
    return RootConfig(**data)


def _candidate_to_dict(cand: RootCandidate) -> dict:
    return {
        "re": cand.standard_coord.real,
        "im": cand.standard_coord.imag,
        "accepted": cand.accepted,
        "reason": cand.rejection_reason.value,
        "residual": cand.residual,
        "polish_iterations": cand.polish_iterations,
        "mapped": cand.mapped_coord,
    }


def _candidate_from_dict(data: dict) -> RootCandidate:
    """The candidate ``data`` describes; its ``accepted`` must agree with its
    ``reason`` (:class:`RootReport` holds its ``mapped`` to that reason)."""
    _has_keys(data, _CANDIDATE_KEYS, "candidate")
    residual, mapped = data["residual"], data["mapped"]
    if not (_is_real(data["re"]) and _is_real(data["im"]) and type(data["accepted"]) is bool
            and (residual is None or _is_real(residual) and residual >= 0.0)
            and _is_count(data["polish_iterations"]) and (mapped is None or _is_real(mapped))):
        raise ValueError(f"candidate {data!r} has a value of the wrong type or sign")
    cand = RootCandidate(
        standard_coord=complex(data["re"], data["im"]),
        mapped_coord=data["mapped"],
        rejection_reason=RejectionReason(data["reason"]),
        residual=data["residual"],
        polish_iterations=data["polish_iterations"],
    )
    if data["accepted"] is not cand.accepted:
        raise ValueError(f"candidate {data!r} contradicts its reason {cand.rejection_reason.value!r}")
    return cand


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
    has the wrong type or sign or is no finite number, its ``roots`` or any
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
            and type(data["roots"]) is list and all(map(_is_real, data["roots"]))):
        raise ValueError("report has a value of the wrong type or sign")
    if type(decay) is not list or not all(_is_real(magnitude) and magnitude >= 0.0 for magnitude in decay):
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


def report_to_json(report: RootReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


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
    return [format_cell(v) for v in _candidate_to_dict(cand).values()]


def report_to_csv(report: RootReport) -> str:
    """One candidate per row; accepted rows carry the mapped root location."""
    return write_csv_rows(_CANDIDATE_COLUMNS, [_candidate_row(c) for c in report.candidates])


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
