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
from dataclasses import asdict, fields

from .chebyshev import DecayProfile
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

FORMAT_VERSION = 4

_DECAY_EXACT = "exact"

# a candidate's CSV columns: the keys of _candidate_to_dict, in its order
_CANDIDATE_COLUMNS = ["re", "im", "accepted", "reason", "residual", "polish_iterations", "mapped"]


def config_to_dict(config: RootConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> RootConfig:
    """The config ``data`` describes; ``ValueError`` unless it has exactly the valid fields of a RootConfig."""
    names = {field.name for field in fields(RootConfig)}
    if not isinstance(data, dict) or data.keys() != names:
        raise ValueError(f"config must have exactly the keys {sorted(names)}, got {data!r}")
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
    ``reason``, and ``mapped`` must be present iff it is accepted."""
    cand = RootCandidate(
        standard_coord=complex(data["re"], data["im"]),
        mapped_coord=data["mapped"],
        rejection_reason=RejectionReason(data["reason"]),
        residual=data["residual"],
        polish_iterations=data["polish_iterations"],
    )
    if data["accepted"] is not cand.accepted or (cand.mapped_coord is None) is cand.accepted:
        raise ValueError(f"candidate {data!r} contradicts its reason {cand.rejection_reason.value!r}")
    return cand


def report_to_dict(report: RootReport, config: RootConfig) -> dict:
    decay = report.coefficient_decay
    return {
        "version": FORMAT_VERSION,
        "config": config_to_dict(config),
        "degree_used": report.degree_used,
        "proxy_converged": report.proxy_converged,
        "roots": list(report.roots),
        "candidates": [_candidate_to_dict(c) for c in report.candidates],
        "decay": [{"j": j, "abs_coeff": m} for j, m in decay.entries()],
        "decay_slope": _DECAY_EXACT if decay.slope is None else decay.slope,
        "function_evaluations": report.function_evaluations,
    }


def report_from_dict(data: dict) -> tuple[RootConfig, RootReport]:
    """The config and report of a document; ``ValueError`` if its version is
    not ours, or its ``roots`` or any ``accepted`` contradicts its candidates."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported report version {data.get('version')!r}")
    slope = data["decay_slope"]
    decay = DecayProfile(
        magnitudes=tuple(entry["abs_coeff"] for entry in data["decay"]),
        slope=None if slope == _DECAY_EXACT else float(slope),
    )
    report = RootReport(
        candidates=tuple(_candidate_from_dict(c) for c in data["candidates"]),
        degree_used=data["degree_used"],
        coefficient_decay=decay,
        function_evaluations=data["function_evaluations"],
        proxy_converged=data["proxy_converged"],
    )
    if tuple(data["roots"]) != report.roots:
        raise ValueError("report roots differ from its accepted candidates")
    return config_from_dict(data["config"]), report


def report_to_json(report: RootReport, config: RootConfig) -> str:
    return json.dumps(report_to_dict(report, config), indent=2)


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


def sweep_to_csv(runs: list[tuple[int, RootReport]]) -> str:
    """One row per (degree, candidate) across a degree sweep."""
    rows = [[format_cell(degree)] + _candidate_row(c) for degree, report in runs for c in report.candidates]
    return write_csv_rows(["degree"] + _CANDIDATE_COLUMNS, rows)


def report_to_text(report: RootReport, config: RootConfig) -> str:
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
    if config.residual_tol is None:
        lines.append("residual test: automatic")
    else:
        lines.append(f"residual test: |f(x)| <= {config.residual_tol!r}")
    return "\n".join(lines) + "\n"
