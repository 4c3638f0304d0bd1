"""The catalog of supported quantum and classical rings.

Eight families, parameterized by n (and m) with a truncation order for
the Novikov variables:

  qh_pn      QH(P^n)                 Q[h][[q]] / (h^{n+1} - q)
  qk_pn      QK(P^n)                 Q[x][[Q]] / ((1-x)^{n+1} - Q)
  qh_fl      QH of the two-step flag of lines in hyperplanes
  qk_fl      QK of the same flag variety
  qh_milnor  QH of the degree-(1,1) hypersurface in P^{n-1} x P^{m-1}
  qk_milnor  QK of that hypersurface
  k_milnor   its classical K-theory (no Novikov variables)
  k_pnxpm    classical K-theory of P^{n-1} x P^{m-1}

Here x and y stand for the inverse line classes; h, h1, h2 for the
hyperplane classes.  Signs are expanded into literal rational
coefficients at construction time.
"""

from __future__ import annotations

from typing import Dict, Optional

from .core import NovikovSeries, Polynomial, VariableSet
from .quotient import Presentation, PresentedAlgebra
from .report import Record

FAMILIES = ("qh_pn", "qk_pn", "qh_fl", "qk_fl", "k_milnor", "qk_milnor",
            "qh_milnor", "k_pnxpm")

_NEEDS_M = {"k_milnor", "qk_milnor", "qh_milnor", "k_pnxpm"}
_CLASSICAL = {"k_milnor", "k_pnxpm"}


class RingId(Record):
    """A catalog ring's parameters, checked here; the key of the ring cache."""

    __slots__ = ("family", "n", "m", "trunc")

    def __init__(self, family: str, n: int, m: Optional[int] = None, trunc: int = 0):
        if family not in FAMILIES:
            raise ValueError("unknown ring family %r" % family)
        if family in _NEEDS_M:
            if m is None:
                raise ValueError("%s needs both n and m" % family)
        elif m is not None:
            raise ValueError("%s takes no m parameter" % family)
        if family in ("qh_pn", "qk_pn"):
            if n < 1:
                raise ValueError("projective space needs n >= 1")
        elif family in ("qh_fl", "qk_fl"):
            if n < 3:
                raise ValueError("flag family needs n >= 3")
        elif family in ("k_milnor", "qk_milnor", "qh_milnor"):
            if not (n >= m >= 3):
                raise ValueError("hypersurface families need n >= m >= 3"
                                 " (m = 2 is excluded)")
        else:  # k_pnxpm
            if n < 1 or m < 1:
                raise ValueError("product family needs n, m >= 1")
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        if family in _CLASSICAL and trunc != 0:
            raise ValueError("%s is classical; truncation must be 0" % family)
        self._set(family, n, m, trunc)

    def label(self) -> str:
        if self.m is None:
            return "%s(n=%d)" % (self.family, self.n)
        return "%s(n=%d,m=%d)" % (self.family, self.n, self.m)


def milnor_f2_poly(vars: VariableSet, n: int, m: int) -> Polynomial:
    """The second classical K relation of the (1,1) hypersurface."""
    x = Polynomial.var(vars, "x")
    y = Polynomial.var(vars, "y")
    f = (-1) ** (n - 1) * (1 - x) ** (n - 1)
    for t in range(1, m):
        f = f + (-1) ** (n - 1 - t) * x ** (t - 1) * (1 - x) ** (n - t - 1) * (1 - y) ** t
    return f


# native truncation for stored relation data; every relation below has
# total q-degree at most 1
_NATIVE = 2


def _sgen(gv, qv, name):
    # a generator or a Novikov variable: the key slot is found by name
    return NovikovSeries.gen(gv, qv, _NATIVE, name)


def make_presentation(family: str, n: int, m: Optional[int] = None) -> Presentation:
    rid = RingId(family, n, m)  # parameter validation
    label = rid.label()

    if family == "qh_pn":
        gv, qv = VariableSet(["h"]), VariableSet(["q"])
        h, q = _sgen(gv, qv, "h"), _sgen(gv, qv, "q")
        return Presentation(label, gv, qv, [("hyperplane_power", h ** (n + 1) - q)])

    if family == "qk_pn":
        gv, qv = VariableSet(["x"]), VariableSet(["Q"])
        x, q = _sgen(gv, qv, "x"), _sgen(gv, qv, "Q")
        return Presentation(label, gv, qv, [("dual_hyperplane_power", (1 - x) ** (n + 1) - q)])

    if family == "qh_fl":
        gv, qv = VariableSet(["h1", "h2"]), VariableSet(["q1", "q2"])
        h1, h2 = _sgen(gv, qv, "h1"), _sgen(gv, qv, "h2")
        q1, q2 = _sgen(gv, qv, "q1"), _sgen(gv, qv, "q2")
        f1 = h2 ** n - q2 * (h1 + h2)
        f2 = -q1 - ((-1) ** (n - 1)) * q2
        for l in range(n):
            f2 = f2 + ((-1) ** (n - 1 - l)) * h1 ** l * h2 ** (n - 1 - l)
        return Presentation(label, gv, qv, [("f1_q", f1), ("f2_q", f2)])

    if family == "qh_milnor":
        gv, qv = VariableSet(["h1", "h2"]), VariableSet(["q1", "q2"])
        h1, h2 = _sgen(gv, qv, "h1"), _sgen(gv, qv, "h2")
        q1, q2 = _sgen(gv, qv, "q1"), _sgen(gv, qv, "q2")
        f1 = h2 ** m - q2 * (h1 + h2)
        f2 = -q1 - ((-1) ** (m - 1)) * q2 * h1 ** (n - m)
        for k in range(m):
            f2 = f2 + ((-1) ** k) * h1 ** (n - 1 - k) * h2 ** k
        return Presentation(label, gv, qv, [("f1_q", f1), ("f2_q", f2)])

    gv = VariableSet(["x", "y"])

    if family == "qk_fl":
        qv = VariableSet(["Q1", "Q2"])
        x, y = _sgen(gv, qv, "x"), _sgen(gv, qv, "y")
        q1, q2 = _sgen(gv, qv, "Q1"), _sgen(gv, qv, "Q2")
        F1 = (1 - y) ** n - q2 + q2 * x * y
        F2 = (milnor_f2_poly(gv, n, n) * NovikovSeries.const(gv, qv, _NATIVE, 1)
              - q2 * x ** (n - 1) - ((-1) ** (n - 1)) * q1 * y)
        return Presentation(label, gv, qv, [("F1_Q", F1), ("F2_Q", F2)])

    if family == "qk_milnor":
        qv = VariableSet(["Q1", "Q2"])
        x, y = _sgen(gv, qv, "x"), _sgen(gv, qv, "y")
        q1, q2 = _sgen(gv, qv, "Q1"), _sgen(gv, qv, "Q2")
        F1 = (1 - y) ** m - q2 + q2 * x * y
        F2 = (milnor_f2_poly(gv, n, m) * NovikovSeries.const(gv, qv, _NATIVE, 1)
              - ((-1) ** (n - m)) * q2 * x ** (m - 1) * (1 - x) ** (n - m)
              - ((-1) ** (n - 1)) * q1 * y)
        return Presentation(label, gv, qv, [("F1_Q", F1), ("F2_Q", F2)])

    qv = VariableSet([])

    if family == "k_milnor":
        x = NovikovSeries.gen(gv, qv, 0, "x")
        y = NovikovSeries.gen(gv, qv, 0, "y")
        F1 = (1 - y) ** m
        F2 = milnor_f2_poly(gv, n, m) * NovikovSeries.const(gv, qv, 0, 1)
        return Presentation(label, gv, qv, [("F1", F1), ("F2", F2)])

    # k_pnxpm
    x = NovikovSeries.gen(gv, qv, 0, "x")
    y = NovikovSeries.gen(gv, qv, 0, "y")
    return Presentation(label, gv, qv,
                        [("F1", (1 - x) ** n), ("F2", (1 - y) ** m)])


_RING_CACHE: Dict[RingId, PresentedAlgebra] = {}


def make_ring(rid: RingId) -> PresentedAlgebra:
    if rid not in _RING_CACHE:
        pres = make_presentation(rid.family, rid.n, rid.m)
        _RING_CACHE[rid] = PresentedAlgebra(pres, rid.trunc)
    return _RING_CACHE[rid]


def ring(family: str, n: int, m: Optional[int] = None, trunc: int = 0) -> PresentedAlgebra:
    return make_ring(RingId(family, n, m, trunc))

