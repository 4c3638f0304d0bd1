"""Generating series with unit-denominator fractions over classical K rings.

Coefficients of the series live in a finite-dimensional K-algebra from
the catalog.  A coefficient is a fraction whose denominator is a formal
multiset of atoms (1 - u*hbar^l)^mult with u a unit of the algebra, so
the denominator's constant term is 1 and each atom is a non-zero-divisor
on polynomials in hbar.  Zero-testing therefore reduces to zero-testing
the numerator, and sums go through the multiset least common multiple.
The difference operators act coefficientwise: the k-th factor operator
multiplies the degree-(d1,d2) coefficient by (1 - u_k*hbar^{d_k}), a
Novikov-variable factor shifts the degree, and a global hbar power
shifts the numerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .catalog import milnor_f2_poly, ring
from .core import Arithmetic, Polynomial, VariableSet, binomial, evaluate
from .quotient import AlgebraElement, PresentedAlgebra
from .report import Check

# denominator multiset: (kind, level) -> multiplicity, kind one of L1, L2, L1L2
AtomSet = Dict[Tuple[str, int], int]


def atom_unit(ring_: PresentedAlgebra, kind: str) -> AlgebraElement:
    if kind == "L1":
        return ring_.generator("x")
    if kind == "L2":
        return ring_.generator("y")
    return ring_.generator("x") * ring_.generator("y")


class HbarPoly(Arithmetic):
    """Polynomial in hbar with coefficients in a classical K-algebra."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring_: PresentedAlgebra, coeffs: List[AlgebraElement]):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ring = ring_
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, ring_: PresentedAlgebra) -> "HbarPoly":
        return cls(ring_, [])

    @classmethod
    def one(cls, ring_: PresentedAlgebra) -> "HbarPoly":
        return cls(ring_, [ring_.one()])

    @classmethod
    def atom(cls, ring_: PresentedAlgebra, kind: str, level: int) -> "HbarPoly":
        """1 - u*hbar^level for the atom's unit u."""
        coeffs = [ring_.one()] + [ring_.zero()] * level
        coeffs[level] = coeffs[level] - atom_unit(ring_, kind)
        return cls(ring_, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int) -> AlgebraElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero()

    def _coerce(self, other):
        return other if isinstance(other, HbarPoly) else None

    def _one(self) -> "HbarPoly":
        return HbarPoly.one(self.ring)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return HbarPoly(self.ring, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self) -> "HbarPoly":
        return HbarPoly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other: "HbarPoly") -> "HbarPoly":
        if self.is_zero() or other.is_zero():
            return HbarPoly.zero(self.ring)
        out = [self.ring.zero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return HbarPoly(self.ring, out)

    def scale(self, c) -> "HbarPoly":
        return HbarPoly(self.ring, [a.scale(c) for a in self.coeffs])

    def scale_elt(self, e: AlgebraElement) -> "HbarPoly":
        return HbarPoly(self.ring, [a * e for a in self.coeffs])

    def shift(self, p: int) -> "HbarPoly":
        """Multiply by hbar^p."""
        if self.is_zero() or p == 0:
            return self
        return HbarPoly(self.ring, [self.ring.zero()] * p + self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HbarPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append("(%s)" % c.render())
            elif k == 1:
                parts.append("(%s)*hbar" % c.render())
            else:
                parts.append("(%s)*hbar^%d" % (c.render(), k))
        return " + ".join(parts)


def _atoms_product(ring_: PresentedAlgebra, atoms: AtomSet) -> HbarPoly:
    out = HbarPoly.one(ring_)
    for (kind, level), mult in sorted(atoms.items()):
        a = HbarPoly.atom(ring_, kind, level)
        for _ in range(mult):
            out = out * a
    return out


def _atoms_lcm(a: AtomSet, b: AtomSet) -> AtomSet:
    out = dict(a)
    for key, mult in b.items():
        out[key] = max(out.get(key, 0), mult)
    return {k: v for k, v in out.items() if v > 0}


def _atoms_diff(big: AtomSet, small: AtomSet) -> AtomSet:
    out = {}
    for key, mult in big.items():
        rest = mult - small.get(key, 0)
        if rest < 0:
            raise ValueError("denominator is not a sub-multiset")
        if rest:
            out[key] = rest
    return out


def render_atoms(atoms: AtomSet) -> str:
    if not atoms:
        return "1"
    parts = []
    for (kind, level), mult in sorted(atoms.items()):
        u = {"L1": "x", "L2": "y", "L1L2": "x*y"}[kind]
        hb = "hbar" if level == 1 else "hbar^%d" % level
        base = "(1 - %s*%s)" % (u, hb)
        parts.append(base if mult == 1 else base + "^%d" % mult)
    return "*".join(parts)


def atoms_degree(atoms: AtomSet) -> int:
    return sum(level * mult for (_, level), mult in atoms.items())


class HbarFraction(Arithmetic):
    """Numerator over a formal product of atoms; exact, never expanded away."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer: HbarPoly, denom: Optional[AtomSet] = None):
        self.numer = numer
        self.denom: AtomSet = {k: v for k, v in (denom or {}).items() if v > 0}

    @property
    def ring(self) -> PresentedAlgebra:
        return self.numer.ring

    @classmethod
    def one(cls, ring_: PresentedAlgebra) -> "HbarFraction":
        return cls(HbarPoly.one(ring_))

    @classmethod
    def zero(cls, ring_: PresentedAlgebra) -> "HbarFraction":
        return cls(HbarPoly.zero(ring_))

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def _coerce(self, other):
        return other if isinstance(other, HbarFraction) else None

    def _one(self) -> "HbarFraction":
        return HbarFraction.one(self.ring)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = _atoms_lcm(self.denom, other.denom)
        # a zero numerator stays zero over any denominator: expand nothing
        na, nb = (f.numer if f.is_zero()
                  else f.numer * _atoms_product(self.ring, _atoms_diff(den, f.denom))
                  for f in (self, other))
        return HbarFraction(na + nb, den)

    def __neg__(self) -> "HbarFraction":
        return HbarFraction(-self.numer, self.denom)

    def __mul__(self, other: "HbarFraction") -> "HbarFraction":
        den = dict(self.denom)
        for key, mult in other.denom.items():
            den[key] = den.get(key, 0) + mult
        return HbarFraction(self.numer * other.numer, den)

    def scale(self, c) -> "HbarFraction":
        return HbarFraction(self.numer.scale(c), self.denom)

    def mul_poly(self, p: HbarPoly) -> "HbarFraction":
        return HbarFraction(self.numer * p, self.denom)

    def __eq__(self, other):
        if not isinstance(other, HbarFraction):
            return NotImplemented
        return (self - other).is_zero()

    def series(self, order: int) -> List[AlgebraElement]:
        """Expand as a power series in hbar up to the given order.

        Independent route for equality checks: each atom is inverted by
        the geometric series in u*hbar^l, truncated at the order.
        """
        cur = [self.numer.coeff(k) for k in range(order + 1)]
        for (kind, level), mult in sorted(self.denom.items()):
            u = atom_unit(self.ring, kind)
            upow = [self.ring.one()]
            for _ in range(order // level):
                upow.append(upow[-1] * u)
            inv = [self.ring.zero() for _ in range(order + 1)]
            for j in range(0, order // level + 1):
                inv[j * level] = upow[j]
            for _ in range(mult):
                nxt = [self.ring.zero() for _ in range(order + 1)]
                for i in range(order + 1):
                    if cur[i].is_zero():
                        continue
                    for j in range(0, order - i + 1):
                        if not inv[j].is_zero():
                            nxt[i + j] = nxt[i + j] + cur[i] * inv[j]
                cur = nxt
        return cur

    def render(self) -> str:
        num = self.numer.render()
        if not self.denom:
            return num
        return "[%s] / %s" % (num, render_atoms(self.denom))


# ------------------------------------------------------------ the J-series


@dataclass
class JSeries:
    context: PresentedAlgebra
    max_deg: int
    coeffs: Dict[Tuple[int, int], HbarFraction]

    def coeff(self, d1: int, d2: int) -> HbarFraction:
        """Coefficient of Q1^d1*Q2^d2; only degrees up to max_deg were computed."""
        if d1 < 0 or d2 < 0 or d1 + d2 > self.max_deg:
            raise ValueError("degree (%d, %d) outside the computed range d1 + d2 <= %d"
                             % (d1, d2, self.max_deg))
        return self.coeffs.get((d1, d2), HbarFraction.zero(self.context))

    def degrees(self) -> List[Tuple[int, int]]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs.values())


def _degree_range(max_deg: int) -> List[Tuple[int, int]]:
    return [(d1, d2) for t in range(max_deg + 1) for d1 in range(t + 1)
            for d2 in [t - d1]]


def _denominator(n: int, m: int, d1: int, d2: int) -> AtomSet:
    atoms: AtomSet = {}
    for l in range(1, d1 + 1):
        atoms[("L1", l)] = n
    for l in range(1, d2 + 1):
        atoms[("L2", l)] = m
    return atoms


def j_milnor(n: int, m: int, max_deg: int) -> JSeries:
    """Series for the degree-(1,1) hypersurface: extra numerator product."""
    if not (n >= m >= 3):
        raise ValueError("need n >= m >= 3")
    R = ring("k_milnor", n, m)
    coeffs = {}
    for d1, d2 in _degree_range(max_deg):
        numer = HbarPoly.one(R)
        for l in range(1, d1 + d2 + 1):
            numer = numer * HbarPoly.atom(R, "L1L2", l)
        coeffs[(d1, d2)] = HbarFraction(numer, _denominator(n, m, d1, d2))
    return JSeries(R, max_deg, coeffs)


def j_product(n: int, m: int, max_deg: int) -> JSeries:
    """Series for the ambient product of projective spaces: no numerator."""
    if not (n >= m >= 3):
        raise ValueError("need n >= m >= 3")
    R = ring("k_pnxpm", n, m)
    coeffs = {}
    for d1, d2 in _degree_range(max_deg):
        coeffs[(d1, d2)] = HbarFraction(HbarPoly.one(R),
                                        _denominator(n, m, d1, d2))
    return JSeries(R, max_deg, coeffs)


# ----------------------------------------------------- difference operators


THETA_VARS = VariableSet(["t1", "t2"])


@dataclass
class DifferenceTerm:
    coeff: Fraction
    hbar_power: int
    q_shift: Tuple[int, int]
    theta_poly: Polynomial  # in t1, t2; t_k acts as 1 - u_k*hbar^{d_k}


@dataclass
class DifferenceExpression:
    terms: List[DifferenceTerm] = field(default_factory=list)

    def add_term(self, coeff, hbar_power: int, q_shift: Tuple[int, int],
                 theta_poly: Polynomial) -> "DifferenceExpression":
        self.terms.append(DifferenceTerm(Fraction(coeff), hbar_power,
                                         q_shift, theta_poly))
        return self


def _theta_multiplier(R: PresentedAlgebra, theta_poly: Polynomial,
                      d1: int, d2: int) -> HbarPoly:
    """Evaluate the theta polynomial at the degree-(d1, d2) multipliers."""
    values = {"t1": HbarPoly.atom(R, "L1", d1), "t2": HbarPoly.atom(R, "L2", d2)}
    return evaluate(theta_poly.terms, THETA_VARS.names, values, HbarPoly.one(R))


def apply_difference(expr: DifferenceExpression, J: JSeries) -> JSeries:
    R = J.context
    out: Dict[Tuple[int, int], HbarFraction] = {}
    for d1, d2 in _degree_range(J.max_deg):
        acc = HbarFraction.zero(R)
        for term in expr.terms:
            s1, s2 = term.q_shift
            p1, p2 = d1 - s1, d2 - s2
            if p1 < 0 or p2 < 0:
                continue
            src = J.coeffs.get((p1, p2))
            if src is None or src.is_zero():
                continue
            mult = _theta_multiplier(R, term.theta_poly, p1, p2)
            piece = src.mul_poly(mult.shift(term.hbar_power)).scale(term.coeff)
            acc = acc + piece
        out[(d1, d2)] = acc
    return JSeries(R, J.max_deg, out)


def _theta_gen(k: int) -> Polynomial:
    return Polynomial.var(THETA_VARS, "t%d" % k)


def hypersurface_operator(index: int, n: int, m: int) -> DifferenceExpression:
    """The two annihilating operators, as difference expressions.

    index 1:  theta2^m - Q2 + Q2*hbar*(1-theta1)*(1-theta2)
    index 2:  F2(1-theta1, 1-theta2)
              - (-1)^{n-m} Q2 (1-theta1)^{m-1} theta1^{n-m}
              - (-1)^{n-1} Q1 (1-theta2)
    """
    t1, t2 = _theta_gen(1), _theta_gen(2)
    one = Polynomial.const(THETA_VARS, 1)
    expr = DifferenceExpression()
    if index == 1:
        expr.add_term(1, 0, (0, 0), t2 ** m)
        expr.add_term(-1, 0, (0, 1), one)
        expr.add_term(1, 1, (0, 1), (1 - t1) * (1 - t2))
    elif index == 2:
        f2 = milnor_f2_poly(VariableSet(["x", "y"]), n, m)
        expr.add_term(1, 0, (0, 0),
                      f2.substitute({"x": 1 - t1, "y": 1 - t2}))
        expr.add_term(-((-1) ** (n - m)), 0, (0, 1),
                      (1 - t1) ** (m - 1) * t1 ** (n - m))
        expr.add_term(-((-1) ** (n - 1)), 0, (1, 0), 1 - t2)
    else:
        raise ValueError("operator index must be 1 or 2")
    return expr


# ------------------------------------------------------------ verifications


def verify_theorem56(n: int, m: int, max_deg: int,
                     operators: Optional[List[DifferenceExpression]] = None,
                     J: Optional[JSeries] = None) -> List[Check]:
    """Apply both annihilating operators; every coefficient must vanish."""
    if max_deg < 0:
        raise ValueError("max_deg must be at least 0, got %d" % max_deg)
    if J is None:
        J = j_milnor(n, m, max_deg)
    if operators is None:
        operators = [hypersurface_operator(1, n, m),
                     hypersurface_operator(2, n, m)]
    out = []
    for idx, op in enumerate(operators, start=1):
        res = apply_difference(op, J)
        for d in res.degrees():
            f = res.coeffs[d]
            zero = f.is_zero()
            out.append(Check.verdict(
                "operator %d at Q^(%d,%d)" % (idx, d[0], d[1]), zero,
                "residual 0" if zero else "residual %s" % f.render()))
    return out


def hbar_infinity_check(n: int, m: int, max_deg: int) -> List[Check]:
    """Degree count certifying the large-hbar limit of each shifted coefficient.

    The denominator expands to degree sum(level*mult) with unit leading
    coefficient, so a strictly smaller numerator degree forces the limit
    to vanish; the numerator is multiplied by a unit times hbar^{d_i},
    which cannot drop its degree.
    """
    if max_deg < 1:  # degree (0, 0) is skipped, so nothing would be checked
        raise ValueError("max_deg must be at least 1, got %d" % max_deg)
    J = j_milnor(n, m, max_deg)
    out = []
    for d1, d2 in _degree_range(max_deg):
        if d1 == 0 and d2 == 0:
            continue
        f = J.coeffs[(d1, d2)]
        den_deg = atoms_degree(f.denom)
        for i, di in ((1, d1), (2, d2)):
            u = atom_unit(J.context, "L%d" % i)
            shifted = f.numer.scale_elt(u).shift(di)
            num_deg = shifted.degree()
            passed = num_deg is None or num_deg < den_deg
            out.append(Check.verdict(
                "i=%d at Q^(%d,%d)" % (i, d1, d2), passed,
                "numerator degree %s < denominator degree %d"
                % (num_deg, den_deg) if passed else
                "numerator degree %s, denominator degree %d" % (num_deg, den_deg)))
    return out


def binomial_identity_check(n_max: int) -> List[Check]:
    """Alternating binomial sum collapses to a single coefficient."""
    if n_max < 1:  # n = 0 has no (t, b) cases
        raise ValueError("max_n must be at least 1, got %d" % n_max)
    checked = 0
    failures = []
    for n in range(0, n_max + 1):
        for t in range(0, n):
            for b in range(0, n - t):
                lhs = sum(binomial(n, n - b + c) * binomial(t + c, c)
                          * ((-1) ** c) for c in range(b + 1))
                rhs = binomial(n - t - 1, b)
                checked += 1
                if lhs != rhs:
                    failures.append("n=%d t=%d b=%d: %s != %s"
                                    % (n, t, b, lhs, rhs))
    passed = not failures
    detail = "%d cases up to n=%d" % (checked, n_max) if passed \
        else "; ".join(failures[:5])
    return [Check.verdict("alternating binomial sum", passed, detail)]


def lemma52_construct_and_check(n: int, m: int) -> Tuple[Polynomial, List[Check]]:
    """Build the cofactor a(x, y) and check the exact polynomial identity.

    F2 - a*F1 must equal the double sum
      (-1)^n sum_{l=0}^{n-1} (-x)^l sum_{s=1}^{l+1} C(n, n-1-l+s) (-y)^s,
    and that sum must agree with its resigned rendering
      sum_l (-1)^{n-1-l} x^l sum_s (-1)^{s-1} C(n, n-1-l+s) y^s.
    """
    if not (n >= m >= 3):
        raise ValueError("need n >= m >= 3")
    vars = VariableSet(["x", "y"])
    x = Polynomial.var(vars, "x")
    y = Polynomial.var(vars, "y")

    a = x ** (n - 1) * (1 - y) ** (n - m)
    for t in range(m, n):
        g_t = ((-1) ** (n - 1 - t)) * x ** (t - 1) * (1 - x) ** (n - t - 1)
        a = a - g_t * (1 - y) ** (t - m)

    f1 = (1 - y) ** m
    f2 = milnor_f2_poly(vars, n, m)
    lhs = f2 - a * f1

    rhs = Polynomial.zero(vars)
    for l in range(n):
        inner = Polynomial.zero(vars)
        for s in range(1, l + 2):
            inner = inner + binomial(n, n - 1 - l + s) * (-y) ** s
        rhs = rhs + (-x) ** l * inner
    rhs = ((-1) ** n) * rhs

    rhs2 = Polynomial.zero(vars)
    for l in range(n):
        inner = Polynomial.zero(vars)
        for s in range(1, l + 2):
            inner = inner + ((-1) ** (s - 1)) * binomial(n, n - 1 - l + s) * y ** s
        rhs2 = rhs2 + ((-1) ** (n - 1 - l)) * x ** l * inner

    checks = [
        Check.verdict("identity", lhs == rhs,
                      "F2 - a*F1 matches the double sum" if lhs == rhs
                      else "difference %s" % (lhs - rhs).render()),
        Check.verdict("resigned rendering", rhs == rhs2,
                      "both sign arrangements agree" if rhs == rhs2
                      else "difference %s" % (rhs - rhs2).render()),
        Check.verdict("y-degree bound", _y_degree(lhs) <= n,
                      "deg_y = %d <= n" % _y_degree(lhs)),
    ]
    return a, checks


def _y_degree(p: Polynomial) -> int:
    return max((mono[1] for mono in p.terms), default=0)
