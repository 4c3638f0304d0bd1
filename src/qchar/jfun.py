"""Generating series with unit-denominator fractions over classical K rings.

Coefficients of the series live in a finite-dimensional q-free K-algebra
from the catalog.  A coefficient is a fraction whose numerator is an
HbarPoly, one term map over the generators and hbar, multiplied through
the algebra's product table in int numerators; its denominator is a
formal multiset of atoms (1 - u*hbar^l)^mult with u a unit of the
algebra, held as a collections.Counter, so the denominator's constant
term is 1 and each atom is a non-zero-divisor on polynomials in hbar.
Zero-testing therefore reduces to zero-testing the numerator, and sums
go through the multiset least common multiple, Counter's |.  The
difference operators act coefficientwise: the k-th factor operator
multiplies the degree-(d1,d2) coefficient by (1 - u_k*hbar^{d_k}), a
Novikov-variable factor shifts the degree, and a global hbar power
shifts the numerator.

apply_difference expands nothing it can substitute.  Since t_k acts as
1 - u_k*hbar^{p_k} on the source coefficient of degree (p1, p2), each
theta polynomial is rewritten once in s_k = 1 - t_k, and then
theta = sum c_ab * x^a*y^b * hbar^{a*p1 + b*p2}: a polynomial over
x, y and hbar with no ring product in it.  Each output degree takes the
Counter union of its sources' denominators, the one a chain of
HbarFraction sums would reach.  A source's summed multipliers, the atoms
its denominator lacks (a binomial expansion, kept for the call) and its
numerator, whose HbarPoly keys are already (a, b, h) exponents over x, y
and hbar, are multiplied over x, y and hbar too, and the pieces summed
there, where they mostly cancel.  Replacing x^a*y^b by its normal form
is a ring homomorphism onto the algebra, so the sum is reduced once per
output degree, and its numerator is the one a chain of HbarPoly
products and HbarFraction sums would reach.  Each normal form is read
from the ring's product table, the one the HbarPoly product fills, so
it is reduced once per ring.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .catalog import XY, DifferenceExpression, _in_s, hypersurface_operator, milnor_f2_poly, ring
from .core import Arithmetic, Coeff, Mono, Polynomial, VariableSet, binomial, joined_vars
from .quotient import AlgebraElement, PresentedAlgebra, _int_groups, _monomial_sums
from .report import Check

# denominator multiset: (kind, level) -> multiplicity, kind one of L1, L2, L1L2
AtomSet = Dict[Tuple[str, int], int]

HBAR = VariableSet(["hbar"])
# an atom's unit u is x^a*y^b with (a, b) = _UNIT_EXPONENTS[kind]
_UNIT_EXPONENTS = {"L1": (1, 0), "L2": (0, 1), "L1L2": (1, 1)}


def atom_unit(ring_: PresentedAlgebra, kind: str) -> AlgebraElement:
    if kind not in _UNIT_EXPONENTS:
        raise ValueError("unknown atom kind %r: expected L1, L2 or L1L2" % (kind,))
    return ring_.reduce(Polynomial(XY, {_UNIT_EXPONENTS[kind]: 1}))


def _table_rows(ring_: PresentedAlgebra,
                sums: Dict[Mono, Dict[int, Coeff]]) -> Dict[Mono, Dict[int, Coeff]]:
    """sum over m of NF(m) * sum_h c_h*hbar^h, as standard monomial -> h -> coeff.

    Each normal form is read from the ring's product table, so it is
    reduced once per ring; a zero sum reads no entry.
    """
    rows: Dict[Mono, Dict[int, Coeff]] = {}
    for m, coeff in sums.items():
        for _, _, me, ce, _ in ring_._entry(m) if any(coeff.values()) else ():
            row = rows.setdefault(me, {})
            for h, c in coeff.items():
                row[h] = row.get(h, 0) + c * ce
    return rows


class HbarPoly(Polynomial):
    """Polynomial in hbar with coefficients in a q-free classical K-algebra.

    A Polynomial over joined_vars(ring.gens, HBAR): a key is a standard
    monomial of the ring (not checked), then the hbar exponent, which is
    never negative.  The product sums each product monomial's hbar
    coefficient, then applies its table entry once.
    """

    __slots__ = ("ring",)
    _space_slots = ("vars", "ring")

    def __init__(self, ring_: PresentedAlgebra, terms: Dict[Mono, Coeff]):
        if len(ring_.q_vars):  # the product caps no q-degree
            raise ValueError("hbar polynomials need a ring without Novikov "
                             "variables, not %r" % ring_.label)
        self.ring = ring_
        super().__init__(joined_vars(ring_.gens, HBAR), terms)

    @classmethod
    def lift(cls, element: AlgebraElement, level: int = 0) -> "HbarPoly":
        """element*hbar^level."""
        return cls(element.ring, {m + (level,): c for m, c in element.terms.items()})

    @classmethod
    def zero(cls, ring_: PresentedAlgebra) -> "HbarPoly":
        return cls(ring_, {})

    @classmethod
    def one(cls, ring_: PresentedAlgebra) -> "HbarPoly":
        return cls.lift(ring_.one())

    @classmethod
    def const(cls, ring_: PresentedAlgebra, c) -> "HbarPoly":
        return cls.lift(ring_.constant(c))

    @classmethod
    def var(cls, ring_: PresentedAlgebra, name: str, power: int = 1) -> "HbarPoly":
        """A generator of the ring, or hbar, to the given power."""
        if name == "hbar":
            return cls.one(ring_).shift(power)
        return cls.lift(ring_.reduce(Polynomial.var(ring_.gens, name, power)))

    @classmethod
    def atom(cls, ring_: PresentedAlgebra, kind: str, level: int) -> "HbarPoly":
        """1 - u*hbar^level for the atom's unit u."""
        return cls.one(ring_) - cls.lift(atom_unit(ring_, kind), level)

    def degree(self) -> Optional[int]:
        return max((m[-1] for m in self.terms), default=None)

    def coeff(self, k: int) -> AlgebraElement:
        """The coefficient of hbar^k."""
        return AlgebraElement(self.ring, {m[:-1]: c for m, c in self.terms.items() if m[-1] == k})

    def shift(self, p: int) -> "HbarPoly":
        """Multiply by hbar^p."""
        return self._new({m[:-1] + (m[-1] + p,): c for m, c in self.terms.items()})

    def _space(self):
        return (self.vars, self.ring)

    def _new(self, terms) -> "HbarPoly":
        return HbarPoly(self.ring, terms)

    def _coerce(self, other):
        if isinstance(other, HbarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return HbarPoly.const(self.ring, other)
        return None

    def _one(self) -> "HbarPoly":
        return HbarPoly.one(self.ring)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        ring_, k = self.ring, len(self.ring.gens)
        Da, left = _int_groups(self.terms, k, (1,))
        Db, right = _int_groups(other.terms, k, (1,))
        # a cap that cuts no pair: each group is sorted by hbar degree
        cap = sum(max((g[-1][1] for g in side.values()), default=0) for side in (left, right))
        # numerators over Da*Db
        terms = _table_rows(ring_, _monomial_sums(left, right, cap))
        # emitted in display order, as an element's product is:
        # grevlex_desc_key(me + (h,)) is (-(deg me + h), h, me reversed)
        out = sorted((-sum(me) - h, h, me[::-1], me, num)
                     for me, row in terms.items() for h, num in row.items() if num)
        D = Da * Db
        return self._trusted({me + (h,): num for _, h, _, me, num in out} if D == 1 else
                             {me + (h,): Fraction(num, D) for _, h, _, me, num in out})

    __pow__ = Arithmetic.__pow__  # hbar is not Laurent

    def render(self) -> str:
        hb = {0: "", 1: "*hbar"}
        return " + ".join("(%s)%s" % (self.coeff(k).render(), hb.get(k, "*hbar^%d" % k))
                          for k in sorted({m[-1] for m in self.terms})) or "0"


def _atoms_product(ring_: PresentedAlgebra, atoms: AtomSet) -> HbarPoly:
    out = HbarPoly.one(ring_)
    for (kind, level), mult in sorted(atoms.items()):
        out = out * HbarPoly.atom(ring_, kind, level) ** mult
    return out


def render_atoms(atoms: AtomSet) -> str:
    if not atoms:
        return "1"
    parts = []
    for (kind, level), mult in sorted(atoms.items()):
        u = XY.render_mono(_UNIT_EXPONENTS[kind])
        hb = "hbar" if level == 1 else "hbar^%d" % level
        base = "(1 - %s*%s)" % (u, hb)
        parts.append(base if mult == 1 else base + "^%d" % mult)
    return "*".join(parts)


def atoms_degree(atoms: AtomSet) -> int:
    return sum(level * mult for (_, level), mult in atoms.items())


class HbarFraction(Arithmetic):
    """Numerator over a formal product of atoms; exact, never expanded away.

    A denominator atom is 1 - u*hbar^level with level an int of at least
    1, which makes it a non-zero-divisor: so a fraction is zero exactly
    when its numerator is, and its series inverts each atom.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: HbarPoly, denom: Optional[AtomSet] = None):
        denom = Counter(denom)
        for (kind, level), mult in denom.items():
            if kind not in _UNIT_EXPONENTS:
                problem = "unknown kind, expected L1, L2 or L1L2"
            elif type(level) is not int or level < 1:
                problem = "the level must be an int of at least 1"
            elif type(mult) is not int:
                problem = "the multiplicity %s is not an int" % (mult,)
            else:
                continue
            raise ValueError("atom %r in the denominator: %s" % ((kind, level), problem))
        bad = sorted((kind, level, mult) for (kind, level), mult in denom.items()
                     if mult < 0)
        if bad:
            raise ValueError("negative atom multiplicity in the denominator: %s"
                             % ", ".join("%s at level %d: %d" % b for b in bad))
        self.numer = numer
        self.denom: Counter = +denom  # zero multiplicities drop out

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
        if isinstance(other, HbarFraction):
            return other
        if isinstance(other, (int, Fraction)):
            return HbarFraction(HbarPoly.const(self.ring, other))
        return None

    def _one(self) -> "HbarFraction":
        return HbarFraction.one(self.ring)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = self.denom | other.denom
        # a zero numerator stays zero over any denominator, and an operand
        # already over the lcm needs no atoms: expand nothing for either
        na, nb = (f.numer if f.is_zero() or f.denom == den
                  else f.numer * _atoms_product(self.ring, den - f.denom)
                  for f in (self, other))
        return HbarFraction(na + nb, den)

    def __neg__(self) -> "HbarFraction":
        return HbarFraction(-self.numer, self.denom)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return HbarFraction(self.numer * other.numer, self.denom + other.denom)

    def scale(self, c) -> "HbarFraction":
        return HbarFraction(self.numer.scale(c), self.denom)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def series(self, order: int) -> List[AlgebraElement]:
        """Expand as a power series in hbar up to the given order.

        Independent route for equality checks: each atom is inverted by
        the geometric series in u*hbar^l, truncated at the order.
        """
        if order < 0:  # an empty list would make an equality check vacuous
            raise ValueError("order must be nonnegative, got %d" % order)
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


class JSeries:
    """The coefficients of Q1^d1*Q2^d2 for d1 + d2 <= max_deg, over `context`."""

    __slots__ = ("context", "max_deg", "coeffs")

    def __init__(self, context: PresentedAlgebra, max_deg: int,
                 coeffs: Dict[Tuple[int, int], HbarFraction]):
        self.context = context
        self.max_deg = max_deg
        self.coeffs = coeffs

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
    # numers[t] = prod_{l <= t} (1 - x*y*hbar^l), shared by every d1 + d2 = t
    numers = [HbarPoly.one(R)]
    for l in range(1, max_deg + 1):
        numers.append(numers[-1] * HbarPoly.atom(R, "L1L2", l))
    coeffs = {}
    for d1, d2 in _degree_range(max_deg):
        coeffs[(d1, d2)] = HbarFraction(numers[d1 + d2], _denominator(n, m, d1, d2))
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


# x^a*y^b*hbar^h before the ring reduces x^a*y^b
XYH = VariableSet(["x", "y", "hbar"])


class _Substitution:
    """Q[x, y, hbar] -> HbarPoly over one ring, for one apply_difference call.

    x^a*y^b*hbar^h goes to NF(x^a*y^b)*hbar^h, the normal form read from
    the ring's product table; atom products over x, y and hbar are kept.
    """

    def __init__(self, ring_: PresentedAlgebra):
        self.zero = HbarPoly.zero(ring_)  # refuses a ring with Novikov variables
        # a table key (a, b) is x^a*y^b, as atom_unit reads it
        ring_.series(Polynomial.zero(XY))  # refuses other generators
        self.ring = ring_
        self._atoms: Dict[frozenset, Polynomial] = {}

    def __call__(self, p: Polynomial) -> HbarPoly:
        by_xy: Dict[Mono, Dict[int, Coeff]] = {}  # (a, b) -> h -> coeff
        for (a, b, h), c in p.terms.items():
            by_xy.setdefault((a, b), {})[h] = c
        rows = _table_rows(self.ring, by_xy)
        return self.zero._trusted({m + (h,): c for m, row in rows.items()
                                   for h, c in row.items() if c})

    def atoms(self, atoms: Counter) -> Polynomial:
        """The product of the atoms over x, y and hbar, by the binomial theorem."""
        key = frozenset(atoms.items())
        out = self._atoms.get(key)
        if out is None:
            out = Polynomial.const(XYH, 1)
            for (kind, level), mult in sorted(atoms.items()):
                a, b = _UNIT_EXPONENTS[kind]
                out = out * Polynomial(XYH, {
                    (a * j, b * j, level * j): binomial(mult, j) * (-1) ** j
                    for j in range(mult + 1)})
            self._atoms[key] = out
        return out


def apply_difference(expr: DifferenceExpression, J: JSeries) -> JSeries:
    R = J.context
    # the sum over x, y and hbar reads every numerator as one over R, so a
    # coefficient over another ring would be reduced in the wrong one
    for (d1, d2), f in J.coeffs.items():
        if f.ring is not R:
            raise ValueError("coefficient at Q^(%d,%d) is over %r, not the series' ring %r"
                             % (d1, d2, f.ring.label, R.label))
    sub = _Substitution(R)
    terms = [(term, _in_s(term.theta_poly)) for term in expr.terms]
    out: Dict[Tuple[int, int], HbarFraction] = {}
    for d1, d2 in _degree_range(J.max_deg):
        # source degree -> the summed multipliers of its terms over x, y, hbar
        mults: Dict[Tuple[int, int], Dict[Mono, Coeff]] = {}
        for term, s_poly in terms:
            s1, s2 = term.q_shift
            p1, p2 = d1 - s1, d2 - s2
            if p1 < 0 or p2 < 0:
                continue
            src = J.coeffs.get((p1, p2))
            if src is None or src.is_zero():
                continue
            # s_k acts as u_k*hbar^{p_k}
            mult = mults.setdefault((p1, p2), {})
            for (a, b), c in s_poly.items():
                key = (a, b, a * p1 + b * p2 + term.hbar_power)
                mult[key] = mult.get(key, 0) + term.coeff * c
        den: Counter = Counter()
        for p in mults:
            den |= J.coeffs[p].denom
        # the pieces are summed over x, y and hbar, where they mostly
        # cancel; a numerator's keys are already (a, b, h) over XYH
        total = Polynomial.zero(XYH)
        for p, mult in mults.items():
            src = J.coeffs[p]
            total = total + (Polynomial(XYH, mult) * sub.atoms(den - src.denom)
                             * Polynomial(XYH, src.numer.terms))
        out[(d1, d2)] = HbarFraction(sub(total), den)
    return JSeries(R, J.max_deg, out)


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
    to vanish.  The numerator is multiplied by a unit times hbar^{d_i};
    a unit cannot drop its degree, so the product has degree
    deg(numerator) + d_i, and that sum is what is compared.
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
        numer_deg = f.numer.degree()
        for i, di in ((1, d1), (2, d2)):
            num_deg = None if numer_deg is None else numer_deg + di
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

    deg_y = _y_degree(lhs)
    checks = [
        Check.verdict("identity", lhs == rhs,
                      "F2 - a*F1 matches the double sum" if lhs == rhs
                      else "difference %s" % (lhs - rhs).render()),
        Check.verdict("resigned rendering", rhs == rhs2,
                      "both sign arrangements agree" if rhs == rhs2
                      else "difference %s" % (rhs - rhs2).render()),
        Check.verdict("y-degree bound", deg_y <= n,
                      "deg_y = %d <= n" % deg_y if deg_y <= n
                      else "deg_y = %d > n = %d" % (deg_y, n)),
    ]
    return a, checks


def _y_degree(p: Polynomial) -> int:
    return max((mono[1] for mono in p.terms), default=0)
