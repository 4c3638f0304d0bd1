"""Certificate and table serialization.

Certificates are JSON objects with sorted keys, so two runs with the
same flags produce identical bytes except for "wall_time_ms".  A check
gets status "pass" only when its residual or normal form was exactly
zero; "skipped" marks facts the tool does not decide.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from . import __version__
from .quotient import PresentedAlgebra

SCHEMA = "qchar-cert/1"
_STATUSES = ("pass", "fail", "skipped")


def check_entry(name: str, status: str, detail: str) -> Dict[str, str]:
    if status not in _STATUSES:
        raise ValueError("status must be one of %s" % (_STATUSES,))
    return {"name": name, "status": status, "detail": detail}


def entries_from(items) -> List[Dict[str, str]]:
    """Normalize module check objects (.name/.passed/.detail) to entries."""
    out = []
    for item in items:
        if isinstance(item, dict):
            out.append(check_entry(item["name"], item["status"], item["detail"]))
        else:
            out.append(check_entry(item.name,
                                   "pass" if item.passed else "fail",
                                   item.detail))
    return out


def all_checks_pass(entries: List[Dict[str, str]]) -> bool:
    """True when no check failed; an empty list checked nothing, so False."""
    return bool(entries) and not any(e["status"] == "fail" for e in entries)


def make_certificate(command: str, params: Dict, truncation,
                     checks: List[Dict[str, str]], wall_time_ms: int,
                     extra: Optional[Dict] = None) -> Dict:
    cert = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "params": params,
        "truncation": truncation,
        "checks": checks,
        "wall_time_ms": wall_time_ms,
    }
    if extra:
        for key, value in extra.items():
            if key in cert:
                raise ValueError("extra key %r collides with the envelope" % key)
            cert[key] = value
    return cert


def certificate_json(cert: Dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def structure_table(algebra: PresentedAlgebra, label: str) -> Dict:
    """Full multiplication table over the monomial basis."""
    basis = algebra.render_basis()
    rows = []
    for (i, j), coords in sorted(algebra.structure_constants().items()):
        rows.append({
            "i": i,
            "j": j,
            "coords": {basis[k]: algebra.render_qpoly(qp)
                       for k, qp in sorted(coords.items())},
        })
    return {
        "ring": label,
        "truncation": algebra.trunc,
        "basis": basis,
        "table": rows,
    }
