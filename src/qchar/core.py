"""Exact multivariate polynomial and truncated Novikov-series arithmetic.

Coefficients are arbitrary-precision rationals (fractions.Fraction); no
floating point anywhere.  A monomial is a tuple of integer exponents
indexed by an ordered variable set, with a per-variable Laurent flag
deciding whether negative exponents are legal.  A NovikovSeries is
polynomial in its main variables and truncated in its Novikov (q)
variables by *total* q-degree: terms of total q-degree > trunc are
discarded by every operation, and "zero at truncation D" means the term
map is empty.

There is one key shape.  A NovikovSeries is a Polynomial over
joined_vars(main, q), the main variables followed by the q variables,
so its keys are flat exponent vectors like a polynomial's; it keeps its
own constructor and product, which enforce the q-degree cap, and its
own display order.  The zero polynomial / series is the one with an
empty term map.  The monomial order is grevlex throughout; grevlex_key
(ascending), grevlex_desc_key (descending) and NovikovSeries._order_key,
which joins the two on the main and q slices of a key, are the only
order keys.  evaluate is the one substitution routine, for polynomials
and for ring maps alike.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, Tuple

Rational = Fraction
Mono = Tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class InternalError(RuntimeError):
    """A construction invariant failed: a defect in qchar, not bad input."""


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient as a Fraction, zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial: upper index must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    return Fraction(math.comb(n, k))


def grevlex_key(mono: Mono):
    """Ascending sort key for graded reverse lexicographic order.

    Total degree first; ties broken so that the monomial whose rightmost
    nonzero exponent difference is negative compares larger.  max() over
    these keys picks the grevlex leading monomial.
    """
    return (sum(mono), tuple(-e for e in reversed(mono)))


def grevlex_desc_key(mono: Mono):
    """Ascending sort key for descending grevlex: the negated grevlex_key.

    The reversed-exponent tuple recovers the monomial.
    """
    return (-sum(mono), tuple(reversed(mono)))


def power_by_squaring(base, e: int, one):
    """base**e by repeated squaring, starting from the given one."""
    if not isinstance(e, int) or e < 0:
        raise ValueError("power must be a nonnegative integer, got %r" % (e,))
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def evaluate(terms: Dict[Mono, Fraction], names, values, one):
    """Sum of c * prod values[name] ** e over the terms {monomial: c}.

    names lists the variable of each exponent slot.  Each power is built
    once and shared by every term, by repeated products with the value
    (or with value ** -1 for a negative exponent, which raises unless the
    value is a unit): a product with a sparse value costs less than
    squaring a dense power.  `one` stands in for the empty monomial and
    is never multiplied.  The values need *, + and scale.
    """
    powers: Dict[Tuple[str, bool], list] = {}
    out = one.scale(0)
    for mono, c in terms.items():
        part = None
        for name, e in zip(names, mono):
            if not e:
                continue
            chain = powers.get((name, e > 0))
            if chain is None:
                if name not in values:
                    raise ValueError("unbound variable %r in substitution" % name)
                base = values[name] if e > 0 else values[name] ** -1
                chain = powers[(name, e > 0)] = [base]
            while len(chain) < abs(e):
                chain.append(chain[-1] * chain[0])
            part = chain[abs(e) - 1] if part is None else part * chain[abs(e) - 1]
        out = out + (one if part is None else part).scale(c)
    return out


def mono_mul(a: Mono, b: Mono) -> Mono:
    # Multiply monomials by adding exponents component-wise.
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """Does a divide b, all exponents of b - a nonnegative."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    return tuple(y - x for x, y in zip(a, b))


class VariableSet:
    """Ordered distinct variable names with per-variable Laurent flags."""

    def __init__(self, names: Iterable[str], laurent: Iterable[bool] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if laurent is None:
            self.laurent = (False,) * len(self.names)
        else:
            self.laurent = tuple(bool(f) for f in laurent)
        if len(self.laurent) != len(self.names):
            raise ValueError("laurent flags do not match variable names")
        self._index = {n: i for i, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError("unknown variable %r" % name)
        return self._index[name]

    def zero_mono(self) -> Mono:
        return (0,) * len(self.names)

    def unit_mono(self, name: str, power: int = 1) -> Mono:
        m = [0] * len(self.names)
        m[self.index(name)] = power
        return tuple(m)

    def check_mono(self, mono: Mono) -> None:
        if len(mono) != len(self.names):
            raise ValueError("exponent vector has wrong length")
        for e, flag, name in zip(mono, self.laurent, self.names):
            if e < 0 and not flag:
                raise ValueError("negative exponent on non-Laurent variable %r" % name)

    def render_mono(self, mono: Mono) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 0:
                continue
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts)

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return (isinstance(other, VariableSet)
                and self.names == other.names
                and self.laurent == other.laurent)

    def __hash__(self):
        return hash((self.names, self.laurent))

    def __repr__(self):
        return "VariableSet(%r)" % (self.names,)


def _render_terms(items) -> str:
    """items: list of (coeff, monostr) in final display order."""
    if not items:
        return "0"
    out = []
    for coeff, monostr in items:
        mag = -coeff if coeff < 0 else coeff
        if monostr and mag == 1:
            body = monostr
        elif monostr:
            body = "%s*%s" % (mag, monostr)
        else:
            body = str(mag)
        if not out:
            out.append("-" + body if coeff < 0 else body)
        else:
            out.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(out)


class Arithmetic:
    """Derived operators shared by the exact arithmetic types.

    A subclass defines _coerce (None for an operand it cannot take),
    __add__, __neg__, __mul__, scale and _one; the reflected and derived
    operators below follow from those.
    """

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, e: int):
        return power_by_squaring(self, e, self._one())


class Polynomial(Arithmetic):
    """Sparse exact multivariate (optionally Laurent) polynomial.

    `terms` maps exponent vectors to nonzero Fractions.  The operators
    that only walk that map go through _space() (what both operands must
    share), _new(terms) (an element of the same space) and _order_key
    (ascending key of display order), which NovikovSeries overrides.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: Dict[Mono, Fraction]):
        self.vars = vars
        clean: Dict[Mono, Fraction] = {}
        for mono, coeff in terms.items():
            if coeff == 0:
                continue
            vars.check_mono(mono)
            clean[mono] = Fraction(coeff)
        self.terms = clean

    # constructors

    @classmethod
    def zero(cls, vars: VariableSet) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VariableSet, c) -> "Polynomial":
        return cls(vars, {vars.zero_mono(): Fraction(c)})

    @classmethod
    def var(cls, vars: VariableSet, name: str, power: int = 1) -> "Polynomial":
        return cls(vars, {vars.unit_mono(name, power): ONE})

    # predicates and accessors

    def leading(self):
        """(monomial, coefficient) maximal in grevlex; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, ZERO)

    def mul_mono(self, mono: Mono) -> "Polynomial":
        return self._new({mono_mul(m, mono): v for m, v in self.terms.items()})

    # the term-map hooks and the operators that only walk the map

    def _space(self):
        return self.vars

    def _new(self, terms) -> "Polynomial":
        return Polynomial(self.vars, terms)

    _order_key = staticmethod(grevlex_desc_key)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_same(self, other: "Polynomial"):
        if self._space() != other._space():
            raise ValueError("operands over different variable sets or truncations")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return self._new(terms)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return self._new({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def sorted_terms(self):
        """Terms in canonical display order."""
        return [(k, self.terms[k]) for k in sorted(self.terms, key=self._order_key)]

    def render(self) -> str:
        return _render_terms([(c, self.vars.render_mono(k)) for k, c in self.sorted_terms()])

    # arithmetic

    def _coerce(self, other):
        # a series is a Polynomial too, but it promotes a polynomial
        # operand itself, so leave it to the reflected operator
        if type(other) is Polynomial:
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.vars, other)
        return None

    def _one(self) -> "Polynomial":
        return Polynomial.const(self.vars, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not Polynomial:
            return NotImplemented
        self._check_same(other)
        terms: Dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Polynomial(self.vars, terms)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("polynomial power must be an integer")
        if e < 0:
            return self.inverse_monomial(-e)
        return super().__pow__(e)

    def truncate(self, deg: int) -> "Polynomial":
        """Drop the terms of total degree above deg."""
        return self._new({m: c for m, c in self.terms.items() if sum(m) <= deg})

    def inverse_monomial(self, e: int = 1) -> "Polynomial":
        """(c*m)^-e for a single-term unit; error otherwise."""
        if len(self.terms) != 1:
            raise ValueError("only single-term polynomials are invertible")
        (m, c), = self.terms.items()
        inv_m = tuple(-x * e for x in m)
        return Polynomial(self.vars, {inv_m: Fraction(1, 1) / (c ** e)})

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def substitute(self, bindings: Dict[str, "Polynomial"]) -> "Polynomial":
        """Evaluate with every occurring variable bound to a polynomial or scalar.

        The polynomial values share one variable set.  Negative exponents
        require the bound value to be a single-term unit (a monomial with
        nonzero coefficient).
        """
        targets = {v.vars for v in bindings.values() if isinstance(v, Polynomial)}
        if len(targets) != 1:
            raise ValueError("substitution needs polynomial values over one variable set")
        target, = targets
        values = {name: v if isinstance(v, Polynomial) else Polynomial.const(target, v)
                  for name, v in bindings.items()}
        return evaluate(self.terms, self.vars.names, values, Polynomial.const(target, 1))

    def __repr__(self):
        return "Polynomial(%s)" % self.render()


@functools.lru_cache(maxsize=None)
def joined_vars(main_vars: VariableSet, q_vars: VariableSet) -> VariableSet:
    """The main variables, then the q variables as non-Laurent ones."""
    return VariableSet(main_vars.names + q_vars.names,
                       main_vars.laurent + (False,) * len(q_vars))


class NovikovSeries(Polynomial):
    """Polynomial in main variables, total-degree-truncated in q variables.

    A polynomial over joined_vars(main_vars, q_vars): its keys are flat
    exponent vectors, the main exponents first.  All arithmetic silently
    discards terms of total q-degree above `trunc`; q exponents are
    always nonnegative.
    """

    __slots__ = ("main_vars", "q_vars", "trunc")

    def __init__(self, main_vars: VariableSet, q_vars: VariableSet, trunc: int,
                 terms: Dict[Mono, Fraction]):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        self.main_vars = main_vars
        self.q_vars = q_vars
        self.trunc = trunc
        self.vars = vars = joined_vars(main_vars, q_vars)
        k = len(main_vars)
        clean: Dict[Mono, Fraction] = {}
        for mono, coeff in terms.items():
            if coeff == 0:
                continue
            vars.check_mono(mono)
            if sum(mono[k:]) > trunc:
                continue
            clean[mono] = coeff if type(coeff) is Fraction else Fraction(coeff)
        self.terms = clean

    # constructors

    @classmethod
    def zero(cls, main_vars, q_vars, trunc):
        return cls(main_vars, q_vars, trunc, {})

    @classmethod
    def const(cls, main_vars, q_vars, trunc, c):
        return cls(main_vars, q_vars, trunc,
                   {joined_vars(main_vars, q_vars).zero_mono(): Fraction(c)})

    @classmethod
    def gen(cls, main_vars, q_vars, trunc, name):
        key = joined_vars(main_vars, q_vars).unit_mono(name)
        return cls(main_vars, q_vars, trunc, {key: ONE})

    q_gen = gen

    @classmethod
    def from_polynomial(cls, p: Polynomial, q_vars: VariableSet, trunc: int):
        qz = q_vars.zero_mono()
        return cls(p.vars, q_vars, trunc, {m + qz: c for m, c in p.terms.items()})

    # accessors

    def classical_part(self) -> Polynomial:
        """The q-degree-zero slice as a polynomial in the main variables."""
        k = len(self.main_vars)
        return Polynomial(self.main_vars,
                          {m[:k]: c for m, c in self.terms.items() if not any(m[k:])})

    # the term-map hooks

    def _space(self):
        return (self.main_vars, self.q_vars, self.trunc)

    def _new(self, terms) -> "NovikovSeries":
        return NovikovSeries(self.main_vars, self.q_vars, self.trunc, terms)

    def _order_key(self, mono):
        # main part by descending grevlex, then q part by ascending grevlex:
        # grevlex_desc_key(main) + grevlex_key(q), inline because the
        # default reduction keys its heap with it
        k = len(self.main_vars)
        mm, qm = mono[:k], mono[k:]
        return (-sum(mm), mm[::-1], sum(qm), tuple(-e for e in reversed(qm)))

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, NovikovSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return NovikovSeries.const(self.main_vars, self.q_vars, self.trunc, other)
        if type(other) is Polynomial and other.vars == self.main_vars:
            return NovikovSeries.from_polynomial(other, self.q_vars, self.trunc)
        return None

    def _one(self) -> "NovikovSeries":
        return NovikovSeries.const(self.main_vars, self.q_vars, self.trunc, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        k, trunc = len(self.main_vars), self.trunc
        right = [(m, sum(m[k:]), c) for m, c in other.terms.items()]
        terms: Dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            room = trunc - sum(m1[k:])
            for m2, d2, c2 in right:
                if d2 > room:
                    continue
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return NovikovSeries(self.main_vars, self.q_vars, trunc, terms)

    # powers by squaring only: Polynomial's negative powers would return
    # a plain Polynomial over the joined variables
    __pow__ = Arithmetic.__pow__

    def truncate(self, new_trunc: int) -> "NovikovSeries":
        """Lower the truncation order; raising it is an error."""
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation order from %d to %d"
                             % (self.trunc, new_trunc))
        if new_trunc == self.trunc:
            return self
        k = len(self.main_vars)
        return NovikovSeries(self.main_vars, self.q_vars, new_trunc,
                             {m: c for m, c in self.terms.items() if sum(m[k:]) <= new_trunc})

    def __repr__(self):
        return "NovikovSeries(%s ; trunc=%d)" % (self.render(), self.trunc)
