"""Check records, certificates and table serialization.

`Check` is the only check record: every verifier returns a list of
them, the CLI prints them, and a certificate stores them as its
"checks" entries.  A check gets status "pass" only when its residual or
normal form was exactly zero; "skipped" marks facts the tool does not
decide.  Certificates are JSON objects with sorted keys, so two runs
with the same flags produce identical bytes except for "wall_time_ms".
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from . import __version__

if TYPE_CHECKING:  # quotient imports Check from here
    from .quotient import PresentedAlgebra

SCHEMA = "qchar-cert/1"
_STATUSES = ("pass", "fail", "skipped")


class Record:
    """An immutable value whose fields are its class's __slots__.

    A subclass's __init__ sets them once, in slot order, through _set.
    Equality (same class only), hash and repr read them in that order,
    so a record is a cache key and prints as Name(field=value, ...).
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._values())))

    def __reduce__(self):  # copy and pickle rebuild a record through __init__
        return type(self), self._values()


class Check(Record):
    """One certified fact: pass, fail or skipped, with a readable detail."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        if status not in _STATUSES:
            raise ValueError("status must be one of %s" % (_STATUSES,))
        self._set(name, status, detail)

    @classmethod
    def verdict(cls, name: str, ok: bool, detail: str) -> "Check":
        return cls(name, "pass" if ok else "fail", detail)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def all_checks_pass(checks: List[Check]) -> bool:
    """True when no check failed; an empty list checked nothing, so False."""
    return bool(checks) and not any(c.status == "fail" for c in checks)


def make_certificate(command: str, params: Dict, truncation,
                     checks: List[Check], wall_time_ms: int,
                     extra: Optional[Dict] = None) -> Dict:
    cert = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "params": params,
        "truncation": truncation,
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                   for c in checks],
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
