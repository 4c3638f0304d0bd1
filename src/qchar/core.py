"""Exact multivariate polynomial and truncated Novikov-series arithmetic.

Coefficients are arbitrary-precision rationals (fractions.Fraction) at
every boundary: each term map a constructor or operator returns holds
Fractions.  Inside the reduction loop and the quotient rings' product
kernels (groebner, quotient, jfun) a reducer row or product-table entry
holds a coefficient as a Python int wherever it is integral, a factor
travels as ints over one common denominator, and a Fraction is built
once per output term.  No floating point anywhere.  A monomial is a tuple of integer exponents
indexed by an ordered variable set, with a per-variable Laurent flag
deciding whether negative exponents are legal.  A NovikovSeries is
polynomial in its main variables and truncated in its Novikov (q)
variables by *total* q-degree: terms of total q-degree > trunc are
discarded by every operation, and "zero at truncation D" means the term
map is empty.

There is one key shape.  A NovikovSeries is a Polynomial over
joined_vars(main, q), the main variables followed by the q variables,
so its keys are flat exponent vectors like a polynomial's.  The q-degree
cap is data, (k, trunc): a term whose exponents from slot k on sum
above trunc is dropped.  _clean_terms, the one loop that cleans a term
map, and _product_terms, the one loop that multiplies two, take it; a
polynomial passes (len(vars), 0), which drops nothing.  The public
constructors, truncate and mul_mono clean their input through it; sums,
products and scalar multiples of valid terms are valid, so they go
through Polynomial._trusted instead, which keeps the operand's space and
only drops zero coefficients.  The zero
polynomial / series is the one with an empty term map.  The monomial
order is grevlex throughout; grevlex_key (ascending), grevlex_desc_key
(descending) and NovikovSeries._order_key, which joins the two on the
main and q slices of a key, are the only order keys.  MonomialOrder
states the same orders as integer weight rows and packs a monomial into
one int that compares as the row values do; the reduction loop
(groebner._reduce) and the quotient rings' product kernel compute on
those ints, and keys are tuples again at their boundary.  evaluate is
the one substitution routine, for polynomials and for ring maps alike.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction
from operator import add, le, mul, neg, sub
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
    return (sum(mono), tuple(map(neg, reversed(mono))))


def grevlex_desc_key(mono: Mono):
    """Ascending sort key for descending grevlex: the negated grevlex_key.

    The reversed-exponent tuple recovers the monomial.
    """
    return (-sum(mono), tuple(reversed(mono)))


class MonomialOrder:
    """A monomial order as integer weight rows, compared lexicographically,
    and its packed form: one nonnegative int per monomial.

    Row i weighs a monomial e as w_i . e.  The packed form holds
    w_i . e + OFF in a field of WIDTH bits, row 0 in the most significant
    field, followed by n fields holding e_1, ..., e_n themselves.  Every
    variable has a row that is a signed unit vector on it (the constructor
    checks), so the weight rows already tell distinct monomials apart and
    the trailing fields never decide a comparison; unpack reads the
    exponents off them.  While every field stays inside its WIDTH bits,
    comparing two packed ints compares the rows lexicographically, and
    packing is affine:
        pack(a*b) == pack(a) + pack(b) - C,
    so a product of packed monomials is an int sum, never a new tuple.
    check(total) raises ValueError unless every nonnegative exponent
    vector of total degree at most `total` fits the fields: a caller
    checks the largest degree it can reach before it packs, so a field
    never wraps.
    """

    WIDTH = 16  # one signed short per field: unpack reads them with struct
    OFF = 1 << (WIDTH - 1)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        n = len(self.rows[0]) if self.rows else 0
        for j in range(n):
            if not any(abs(row[j]) == 1 and sum(map(abs, row)) == 1 for row in self.rows):
                raise ValueError("no weight row is a unit vector on exponent %d" % j)
        fields = self.rows + tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        shifts = [self.WIDTH * (len(fields) - 1 - f) for f in range(len(fields))]
        # pack(e) = C + sum_j e_j * cols[j]
        self.cols = tuple(sum(row[j] << s for row, s in zip(fields, shifts))
                          for j in range(n))
        self.C = sum(self.OFF << s for s in shifts)
        self._maxw = max((abs(w) for row in self.rows for w in row), default=1)
        # P ^ C holds each field as a signed big-endian short
        self._fields = struct.Struct(">%dh" % len(fields)).unpack
        self._nbytes = 2 * len(fields)
        self._first = len(self.rows)

    @classmethod
    def grevlex(cls, *blocks) -> "MonomialOrder":
        """Blocks compared in turn, grevlex inside each.

        A block is (size, descending): a descending block ranks its
        grevlex-largest monomial first, as grevlex_desc_key does, an
        ascending one its smallest, as grevlex_key does.
        """
        n = sum(size for size, _ in blocks)
        rows, start = [], 0
        for size, descending in blocks:
            if size:
                t = -1 if descending else 1
                rows.append([t if start <= j < start + size else 0 for j in range(n)])
                for v in reversed(range(start, start + size)):
                    rows.append([-t if j == v else 0 for j in range(n)])
            start += size
        return cls(rows)

    def pack(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.cols), self.C)

    def unpack(self, packed: int) -> Mono:
        return self._fields((packed ^ self.C).to_bytes(self._nbytes, "big"))[self._first:]

    def check(self, total: int) -> None:
        """Raise ValueError unless exponents of total degree <= total pack exactly."""
        if total * self._maxw >= self.OFF:
            raise ValueError("monomials of total degree %d do not fit the %d-bit fields "
                             "of a packed monomial" % (total, self.WIDTH))


@functools.lru_cache(maxsize=None)
def grevlex_desc_order(n: int) -> MonomialOrder:
    """Descending grevlex on n variables: rows -deg, then e_n, ..., e_1."""
    return MonomialOrder.grevlex((n, True))


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
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """Does a divide b, all exponents of b - a nonnegative."""
    return all(map(le, a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    return tuple(map(sub, b, a))


def _clean_terms(vars: VariableSet, terms, k: int, trunc: int) -> Dict[Mono, Fraction]:
    """The nonzero terms within the cap (k, trunc), checked, as Fractions."""
    clean: Dict[Mono, Fraction] = {}
    for mono, coeff in terms.items():
        if coeff == 0:
            continue
        vars.check_mono(mono)
        if sum(mono[k:]) > trunc:
            continue
        clean[mono] = coeff if type(coeff) is Fraction else Fraction(coeff)
    return clean


def _product_terms(left, right, k: int, trunc: int) -> Dict[Mono, Fraction]:
    """The product of two term maps, skipping the pairs above the cap (k, trunc)."""
    right_terms = [(m, sum(m[k:]), c) for m, c in right.items()]
    terms: Dict[Mono, Fraction] = {}
    for m1, c1 in left.items():
        room = trunc - sum(m1[k:])
        for m2, d2, c2 in right_terms:
            if d2 > room:
                continue
            m = mono_mul(m1, m2)
            terms[m] = terms.get(m, ZERO) + c1 * c2
    return terms


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
    share), _new(terms) (a checked element of the same space), _trusted
    (an unchecked one) and _order_key (ascending key of display order),
    which NovikovSeries overrides.
    """

    __slots__ = ("vars", "terms")
    _space_slots = ("vars",)  # the slots _trusted copies; a subclass lists all of its own

    def __init__(self, vars: VariableSet, terms: Dict[Mono, Fraction]):
        self.vars = vars
        self.terms = _clean_terms(vars, terms, len(vars), 0)

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

    def _trusted(self, terms: Dict[Mono, Fraction]) -> "Polynomial":
        """An element of this space from Fraction terms already valid in it.

        Nothing is checked: the keys must fit the space (and its cap) and
        the coefficients must be Fractions.  Only zero coefficients are
        dropped.  Sums, products and scalar multiples of valid terms
        satisfy that, so they are built here, not by the constructors.
        """
        new = object.__new__(type(self))
        for name in self._space_slots:
            setattr(new, name, getattr(self, name))
        new.terms = {m: c for m, c in terms.items() if c}
        return new

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
            old = terms.get(k)
            terms[k] = c if old is None else old + c
        return self._trusted(terms)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return self._trusted({k: v * c for k, v in self.terms.items()})

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
        return self._trusted(_product_terms(self.terms, other.terms, len(self.vars), 0))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("polynomial power must be an integer")
        if e < 0:
            return self.inverse_monomial(-e)
        return super().__pow__(e)

    def truncate(self, deg: int) -> "Polynomial":
        """Drop the terms of total degree above deg: the cap (0, deg)."""
        return self._trusted(_clean_terms(self.vars, self.terms, 0, deg))

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
        return "%s(%s)" % (type(self).__name__, self.render())


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
    _space_slots = ("vars", "main_vars", "q_vars", "trunc")

    def __init__(self, main_vars: VariableSet, q_vars: VariableSet, trunc: int,
                 terms: Dict[Mono, Fraction]):
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        self.main_vars = main_vars
        self.q_vars = q_vars
        self.trunc = trunc
        self.vars = vars = joined_vars(main_vars, q_vars)
        self.terms = _clean_terms(vars, terms, len(main_vars), trunc)

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

    q_gen = var = gen

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
        # grevlex_desc_key(main) + grevlex_key(q), which the quotient
        # rings' default strategy packs as MonomialOrder.grevlex((k, True),
        # (len(q), False))
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
        return self._trusted(_product_terms(self.terms, other.terms,
                                            len(self.main_vars), self.trunc))

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
        return NovikovSeries(self.main_vars, self.q_vars, new_trunc, self.terms)

    def __repr__(self):
        return "NovikovSeries(%s ; trunc=%d)" % (self.render(), self.trunc)
