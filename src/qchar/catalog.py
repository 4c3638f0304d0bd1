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
hyperplane classes.  The flag variety is the hypersurface at m = n, so
the two fl families are the milnor ones there, under their own labels.
The K relations of the hypersurface are read off the two difference
operators of Theorem 5.6 that annihilate its J-function, which
jfun.verify_theorem56 applies: F_i is the symbol of operator i
(t_k -> 1 - x_k, hbar -> 1, a Novikov shift (s1, s2) -> Q1^s1*Q2^s2), and
k_milnor drops the shifted terms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import Coeff, Mono, NovikovSeries, Polynomial, VariableSet, binomial, exact_coeff
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


def milnor_f2(x, y, n: int, m: int):
    """The second classical K relation of the (1,1) hypersurface, at x and y."""
    f = (-1) ** (n - 1) * (1 - x) ** (n - 1)
    for t in range(1, m):
        f = f + (-1) ** (n - 1 - t) * x ** (t - 1) * (1 - x) ** (n - t - 1) * (1 - y) ** t
    return f


def milnor_f2_poly(vars: VariableSet, n: int, m: int) -> Polynomial:
    return milnor_f2(Polynomial.var(vars, "x"), Polynomial.var(vars, "y"), n, m)


# ----------------------------------------------------- difference operators


THETA_VARS = VariableSet(["t1", "t2"])
XY = VariableSet(["x", "y"])


class DifferenceTerm:
    """coeff * hbar^hbar_power * Q1^s1*Q2^s2 * theta_poly, with (s1, s2) =
    q_shift and theta_poly in t1, t2; t_k acts as 1 - u_k*hbar^{d_k}."""

    __slots__ = ("coeff", "hbar_power", "q_shift", "theta_poly")

    def __init__(self, coeff: Coeff, hbar_power: int, q_shift: Tuple[int, int],
                 theta_poly: Polynomial):
        # the theta polynomial is read by slot: slot k must be t_k
        if not isinstance(theta_poly, Polynomial) or theta_poly.vars != THETA_VARS:
            raise ValueError("theta polynomial must be over %r, got %r"
                             % (THETA_VARS, getattr(theta_poly, "vars", theta_poly)))
        if not _is_nonnegative_int(hbar_power):
            raise ValueError("hbar power must be an int >= 0, got %r" % (hbar_power,))
        if not (isinstance(q_shift, tuple) and len(q_shift) == 2
                and all(map(_is_nonnegative_int, q_shift))):
            raise ValueError("Novikov shift must be two ints >= 0, got %r" % (q_shift,))
        self.coeff = coeff
        self.hbar_power = hbar_power
        self.q_shift = q_shift
        self.theta_poly = theta_poly


def _is_nonnegative_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class DifferenceExpression:
    """A sum of DifferenceTerms, built with add_term."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[List[DifferenceTerm]] = None):
        self.terms = [] if terms is None else terms

    def add_term(self, coeff, hbar_power: int, q_shift: Tuple[int, int],
                 theta_poly: Polynomial) -> "DifferenceExpression":
        self.terms.append(DifferenceTerm(exact_coeff(coeff), hbar_power,
                                         q_shift, theta_poly))
        return self


def _in_s(theta_poly: Polynomial) -> Dict[Tuple[int, int], Coeff]:
    """theta(1 - s1, 1 - s2) as {(a, b): coefficient of s1^a*s2^b}."""
    out: Dict[Tuple[int, int], Coeff] = {}
    for (i, j), c in theta_poly.terms.items():
        for a in range(i + 1):
            ca = c * binomial(i, a) * (-1) ** a
            for b in range(j + 1):
                out[(a, b)] = out.get((a, b), 0) + ca * binomial(j, b) * (-1) ** b
    return out


def hypersurface_operator(index: int, n: int, m: int) -> DifferenceExpression:
    """The two annihilating operators, as difference expressions.

    index 1:  theta2^m - Q2 + Q2*hbar*(1-theta1)*(1-theta2)
    index 2:  F2(1-theta1, 1-theta2)
              - (-1)^{n-m} Q2 (1-theta1)^{m-1} theta1^{n-m}
              - (-1)^{n-1} Q1 (1-theta2)
    """
    t1, t2 = Polynomial.var(THETA_VARS, "t1"), Polynomial.var(THETA_VARS, "t2")
    expr = DifferenceExpression()
    if index == 1:
        expr.add_term(1, 0, (0, 0), t2 ** m)
        expr.add_term(-1, 0, (0, 1), Polynomial.const(THETA_VARS, 1))
        expr.add_term(1, 1, (0, 1), (1 - t1) * (1 - t2))
    elif index == 2:
        expr.add_term(1, 0, (0, 0), milnor_f2(1 - t1, 1 - t2, n, m))
        expr.add_term(-((-1) ** (n - m)), 0, (0, 1),
                      (1 - t1) ** (m - 1) * t1 ** (n - m))
        expr.add_term(-((-1) ** (n - 1)), 0, (1, 0), 1 - t2)
    else:
        raise ValueError("operator index must be 1 or 2")
    return expr


def symbol(expr: DifferenceExpression, q_vars: VariableSet, trunc: int) -> NovikovSeries:
    """The relation read off an operator: t_k -> 1 - x_k, hbar -> 1 and a
    Novikov shift (s1, s2) -> Q1^s1*Q2^s2; with no Novikov variables the
    shifted terms drop."""
    k = len(q_vars)  # 2, or 0 to drop the shifted terms
    terms: Dict[Mono, Coeff] = {}
    for term in expr.terms:
        if k or not any(term.q_shift):
            for ab, c in _in_s(term.theta_poly).items():
                key = ab + term.q_shift[:k]
                terms[key] = terms.get(key, 0) + term.coeff * c
    return NovikovSeries(XY, q_vars, trunc, terms)


# native truncation for stored relation data; every relation below has
# total q-degree at most 1
_NATIVE = 2


def _sgen(gv, qv, name):
    # a generator or a Novikov variable: the key slot is found by name
    return NovikovSeries.gen(gv, qv, _NATIVE, name)


def make_presentation(family: str, n: int, m: Optional[int] = None) -> Presentation:
    rid = RingId(family, n, m)  # parameter validation
    label = rid.label()
    if family.endswith("_fl"):  # the flag variety is the m = n hypersurface
        family, m = family.replace("_fl", "_milnor"), n

    if family == "qh_pn":
        gv, qv = VariableSet(["h"]), VariableSet(["q"])
        h, q = _sgen(gv, qv, "h"), _sgen(gv, qv, "q")
        return Presentation(label, gv, qv, [("hyperplane_power", h ** (n + 1) - q)])

    if family == "qk_pn":
        gv, qv = VariableSet(["x"]), VariableSet(["Q"])
        x, q = _sgen(gv, qv, "x"), _sgen(gv, qv, "Q")
        return Presentation(label, gv, qv, [("dual_hyperplane_power", (1 - x) ** (n + 1) - q)])

    if family == "qh_milnor":
        gv, qv = VariableSet(["h1", "h2"]), VariableSet(["q1", "q2"])
        h1, h2 = _sgen(gv, qv, "h1"), _sgen(gv, qv, "h2")
        q1, q2 = _sgen(gv, qv, "q1"), _sgen(gv, qv, "q2")
        f1 = h2 ** m - q2 * (h1 + h2)
        f2 = -q1 - ((-1) ** (m - 1)) * q2 * h1 ** (n - m)
        for k in range(m):
            f2 = f2 + ((-1) ** k) * h1 ** (n - 1 - k) * h2 ** k
        return Presentation(label, gv, qv, [("f1_q", f1), ("f2_q", f2)])

    if family in ("qk_milnor", "k_milnor"):  # the symbols of the Theorem 5.6 operators
        qv, trunc, names = ((VariableSet(["Q1", "Q2"]), _NATIVE, ("F1_Q", "F2_Q"))
                            if family == "qk_milnor" else (VariableSet([]), 0, ("F1", "F2")))
        return Presentation(label, XY, qv,
                            [(name, symbol(hypersurface_operator(i, n, m), qv, trunc))
                             for i, name in enumerate(names, start=1)])

    # k_pnxpm
    qv = VariableSet([])
    x = NovikovSeries.gen(XY, qv, 0, "x")
    y = NovikovSeries.gen(XY, qv, 0, "y")
    return Presentation(label, XY, qv,
                        [("F1", (1 - x) ** n), ("F2", (1 - y) ** m)])


_RING_CACHE: Dict[RingId, PresentedAlgebra] = {}


def make_ring(rid: RingId) -> PresentedAlgebra:
    if rid not in _RING_CACHE:
        pres = make_presentation(rid.family, rid.n, rid.m)
        _RING_CACHE[rid] = PresentedAlgebra(pres, rid.trunc)
    return _RING_CACHE[rid]


def ring(family: str, n: int, m: Optional[int] = None, trunc: int = 0) -> PresentedAlgebra:
    return make_ring(RingId(family, n, m, trunc))

