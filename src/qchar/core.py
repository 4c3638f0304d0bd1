"""Exact multivariate polynomial and truncated Novikov-series arithmetic.

Coefficients are arbitrary-precision rationals (fractions.Fraction); no
floating point anywhere.  A monomial is a tuple of integer exponents
indexed by an ordered variable set, with a per-variable Laurent flag
deciding whether negative exponents are legal.  A NovikovSeries is
polynomial in its main variables and truncated in its Novikov (q)
variables by *total* q-degree: terms of total q-degree > trunc are
discarded by every operation, and "zero at truncation D" means the term
map is empty.

The zero polynomial / series is the one with an empty term map.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Tuple

Rational = Fraction
Mono = Tuple[int, ...]
TermMap = Dict[Mono, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


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


class Polynomial:
    """Sparse exact multivariate (optionally Laurent) polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: TermMap):
        self.vars = vars
        clean: TermMap = {}
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

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def leading(self):
        """(monomial, coefficient) maximal in grevlex; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, ZERO)

    def monic(self) -> "Polynomial":
        _, c = self.leading()
        return self.scale(Fraction(1, 1) / c)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.vars)
        return Polynomial(self.vars, {m: v * c for m, v in self.terms.items()})

    def mul_mono(self, mono: Mono, coeff=ONE) -> "Polynomial":
        coeff = Fraction(coeff)
        return Polynomial(self.vars, {mono_mul(m, mono): v * coeff for m, v in self.terms.items()})

    # arithmetic

    def _check_same(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable sets")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return Polynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        terms: TermMap = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Polynomial(self.vars, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("polynomial power must be an integer")
        if e < 0:
            return self.inverse_monomial(-e)
        return power_by_squaring(self, e, Polynomial.const(self.vars, 1))

    def inverse_monomial(self, e: int = 1) -> "Polynomial":
        """(c*m)^-e for a single-term unit; error otherwise."""
        if len(self.terms) != 1:
            raise ValueError("only single-term polynomials are invertible")
        (m, c), = self.terms.items()
        inv_m = tuple(-x * e for x in m)
        return Polynomial(self.vars, {inv_m: Fraction(1, 1) / (c ** e)})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # substitution and rendering

    def substitute(self, bindings: Dict[str, "Polynomial"]) -> "Polynomial":
        """Evaluate with every occurring variable bound to a polynomial.

        Negative exponents require the bound value to be a single-term
        unit (a monomial with nonzero coefficient).
        """
        target = None
        poly_bindings: Dict[str, Polynomial] = {}
        for name, value in bindings.items():
            if isinstance(value, Polynomial):
                poly_bindings[name] = value
                if target is None:
                    target = value.vars
                elif target != value.vars:
                    raise ValueError("bindings over different variable sets")
            else:
                poly_bindings[name] = value  # scalar, coerced once target known
        if target is None:
            raise ValueError("substitution needs at least one polynomial value")
        for name, value in list(poly_bindings.items()):
            if not isinstance(value, Polynomial):
                poly_bindings[name] = Polynomial.const(target, value)

        result = Polynomial.zero(target)
        power_cache: Dict[Tuple[str, int], Polynomial] = {}
        for mono, coeff in self.terms.items():
            part = Polynomial.const(target, coeff)
            for name, e in zip(self.vars.names, mono):
                if e == 0:
                    continue
                if name not in poly_bindings:
                    raise ValueError("unbound variable %r in substitution" % name)
                key = (name, e)
                if key not in power_cache:
                    power_cache[key] = poly_bindings[name] ** e
                part = part * power_cache[key]
            result = result + part
        return result

    def sorted_terms(self):
        """Terms in canonical display order: descending grevlex."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(reversed(t[0]))))

    def render(self) -> str:
        items = [(c, self.vars.render_mono(m)) for m, c in self.sorted_terms()]
        return _render_terms(items)

    def __repr__(self):
        return "Polynomial(%s)" % self.render()


class NovikovSeries:
    """Polynomial in main variables, total-degree-truncated in q variables.

    Terms are keyed by (main monomial, q monomial).  All arithmetic
    silently discards terms of total q-degree above `trunc`; q exponents
    are always nonnegative.
    """

    __slots__ = ("main_vars", "q_vars", "trunc", "terms")

    def __init__(self, main_vars: VariableSet, q_vars: VariableSet, trunc: int,
                 terms: Dict[Tuple[Mono, Mono], Fraction]):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        self.main_vars = main_vars
        self.q_vars = q_vars
        self.trunc = trunc
        clean: Dict[Tuple[Mono, Mono], Fraction] = {}
        for (mm, qm), coeff in terms.items():
            if coeff == 0:
                continue
            main_vars.check_mono(mm)
            if len(qm) != len(q_vars):
                raise ValueError("q exponent vector has wrong length")
            if any(e < 0 for e in qm):
                raise ValueError("negative q exponent")
            if sum(qm) > trunc:
                continue
            clean[(mm, qm)] = Fraction(coeff)
        self.terms = clean

    # constructors

    @classmethod
    def zero(cls, main_vars, q_vars, trunc):
        return cls(main_vars, q_vars, trunc, {})

    @classmethod
    def const(cls, main_vars, q_vars, trunc, c):
        key = (main_vars.zero_mono(), q_vars.zero_mono())
        return cls(main_vars, q_vars, trunc, {key: Fraction(c)})

    @classmethod
    def gen(cls, main_vars, q_vars, trunc, name, power: int = 1):
        key = (main_vars.unit_mono(name, power), q_vars.zero_mono())
        return cls(main_vars, q_vars, trunc, {key: ONE})

    @classmethod
    def q_gen(cls, main_vars, q_vars, trunc, name, power: int = 1):
        key = (main_vars.zero_mono(), q_vars.unit_mono(name, power))
        return cls(main_vars, q_vars, trunc, {key: ONE})

    @classmethod
    def from_polynomial(cls, p: Polynomial, q_vars: VariableSet, trunc: int):
        qz = q_vars.zero_mono()
        return cls(p.vars, q_vars, trunc, {(m, qz): c for m, c in p.terms.items()})

    # accessors

    def is_zero(self) -> bool:
        return not self.terms

    def classical_part(self) -> Polynomial:
        """The q-degree-zero slice as a polynomial in the main variables."""
        qz = self.q_vars.zero_mono()
        return Polynomial(self.main_vars, {mm: c for (mm, qm), c in self.terms.items() if qm == qz})

    def q_tail(self) -> "NovikovSeries":
        qz = self.q_vars.zero_mono()
        return NovikovSeries(self.main_vars, self.q_vars, self.trunc,
                             {k: c for k, c in self.terms.items() if k[1] != qz})

    def min_q_degree(self):
        """Smallest total q-degree with a nonzero term; None for zero."""
        if not self.terms:
            return None
        return min(sum(qm) for _, qm in self.terms)

    def max_q_degree(self):
        if not self.terms:
            return None
        return max(sum(qm) for _, qm in self.terms)

    # arithmetic

    def _check_same(self, other: "NovikovSeries"):
        if (self.main_vars != other.main_vars or self.q_vars != other.q_vars
                or self.trunc != other.trunc):
            raise ValueError("series over different rings or truncations")

    def _coerce(self, other):
        if isinstance(other, NovikovSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return NovikovSeries.const(self.main_vars, self.q_vars, self.trunc, other)
        if isinstance(other, Polynomial) and other.vars == self.main_vars:
            return NovikovSeries.from_polynomial(other, self.q_vars, self.trunc)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return NovikovSeries(self.main_vars, self.q_vars, self.trunc, terms)

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries(self.main_vars, self.q_vars, self.trunc,
                             {k: -c for k, c in self.terms.items()})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return NovikovSeries(self.main_vars, self.q_vars, self.trunc,
                                 {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        terms: Dict[Tuple[Mono, Mono], Fraction] = {}
        for (mm1, qm1), c1 in self.terms.items():
            for (mm2, qm2), c2 in other.terms.items():
                qm = mono_mul(qm1, qm2)
                if sum(qm) > self.trunc:
                    continue
                k = (mono_mul(mm1, mm2), qm)
                terms[k] = terms.get(k, ZERO) + c1 * c2
        return NovikovSeries(self.main_vars, self.q_vars, self.trunc, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            coerced = self._coerce(other)
            if coerced is not None:
                return coerced * self
            if isinstance(other, (int, Fraction)):
                return self * other
        return NotImplemented

    def __pow__(self, e: int):
        one = NovikovSeries.const(self.main_vars, self.q_vars, self.trunc, 1)
        return power_by_squaring(self, e, one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.main_vars == other.main_vars and self.q_vars == other.q_vars
                and self.trunc == other.trunc and self.terms == other.terms)

    # truncation and rendering

    def truncate(self, new_trunc: int) -> "NovikovSeries":
        """Lower the truncation order; raising it is an error."""
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation order from %d to %d"
                             % (self.trunc, new_trunc))
        if new_trunc == self.trunc:
            return self
        return NovikovSeries(self.main_vars, self.q_vars, new_trunc,
                             {k: c for k, c in self.terms.items() if sum(k[1]) <= new_trunc})

    def sorted_terms(self):
        """Canonical order: main descending grevlex, then q ascending."""
        def key(item):
            (mm, qm), _ = item
            return (-sum(mm), tuple(reversed(mm)), sum(qm), tuple(-e for e in reversed(qm)))
        return sorted(self.terms.items(), key=key)

    def render_key(self, mm: Mono, qm: Mono) -> str:
        main_str = self.main_vars.render_mono(mm)
        q_str = self.q_vars.render_mono(qm)
        if main_str and q_str:
            return main_str + "*" + q_str
        return main_str or q_str

    def render(self) -> str:
        items = [(c, self.render_key(mm, qm)) for (mm, qm), c in self.sorted_terms()]
        return _render_terms(items)

    def __repr__(self):
        return "NovikovSeries(%s ; trunc=%d)" % (self.render(), self.trunc)
