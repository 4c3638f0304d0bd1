"""Truncated quantum quotient rings presented by relations with q-tails.

A presentation consists of generators, Novikov variables, and relations
r_j = c_j + t_j whose classical part c_j is a nonzero polynomial in the
generators and whose tail t_j has total q-degree >= 1.  The classical
parts get a reduced grevlex basis with cofactor rows u_{i,j}; each basis
element g_i then acquires a quantum correction
    h_i := -sum_j u_{i,j} * t_j,
so that modulo the relations g_i acts as h_i, and normal-form reduction
rewrites a term through  lm(g_i) == h_i - (g_i - lm(g_i)).  Every
rewrite strictly drops the (classical monomial, q-degree) measure, so
reduction terminates at any truncation order.

Reduction keeps its working terms in a dict and their order in a heap
with lazy deletion: a key is pushed when its term enters the working
set, and a popped key whose term has since cancelled is skipped.  The
default strategy rewrites the largest classical monomial first (grevlex),
ties by lowest q-degree, with the first matching rule.  The alternate
strategy rewrites the smallest reducible classical monomial first, ties
by highest q-degree, with the last matching rule; it emits irreducible
terms at once, since they never become reducible.  The matching rule of
each classical monomial is looked up once per reduction.  The two
strategies share no order or rule choice, so comparing their normal
forms (confluence_check) is an independent check of the rules.

An element is held as its normal form: a NovikovSeries at the ring's
truncation whose classical monomials are standard monomials.  Reduction
emits its irreducible terms straight into that series' term map, sums
and scalar multiples of normal forms are normal forms, and a product
multiplies the two series and reduces once.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    Arithmetic,
    Mono,
    NovikovSeries,
    Polynomial,
    VariableSet,
    _render_terms,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_mul,
)
from .groebner import GroebnerData, divide, groebner, is_zero_dimensional, standard_monomials
from .report import Check

QPoly = Dict[Mono, Fraction]  # truncated polynomial in the q variables


class Presentation:
    """Exact relation data, instantiable at any truncation order."""

    def __init__(self, label: str, gens: VariableSet, q_vars: VariableSet,
                 relations: List[Tuple[str, NovikovSeries]]):
        self.label = label
        self.gens = gens
        self.q_vars = q_vars
        if set(gens.names) & set(q_vars.names):
            raise ValueError("generator and Novikov variable names overlap")
        self.relation_names = [name for name, _ in relations]
        self.relation_terms = [dict(rel.terms) for _, rel in relations]
        for name, rel in relations:
            if rel.main_vars != gens or rel.q_vars != q_vars:
                raise ValueError("relation %r over wrong variable sets" % name)
            if rel.classical_part().is_zero():
                raise ValueError("relation %r has zero classical part" % name)

    def relation_at(self, j: int, trunc: int) -> NovikovSeries:
        return NovikovSeries(self.gens, self.q_vars, trunc, self.relation_terms[j])

    def relations_at(self, trunc: int) -> List[NovikovSeries]:
        return [self.relation_at(j, trunc) for j in range(len(self.relation_terms))]


class AlgebraElement(Arithmetic):
    """Element of a PresentedAlgebra, held as its normal-form series.

    nf is a NovikovSeries at the ring's truncation whose classical
    monomials are all standard monomials, so it is the element's unique
    representative.  Elements share their series: nothing mutates one.
    coords is the derived view basis index -> q-polynomial coefficient.
    """

    __slots__ = ("ring", "nf")

    def __init__(self, ring: "PresentedAlgebra", nf: NovikovSeries):
        self.ring = ring
        self.nf = nf

    @property
    def coords(self) -> Dict[int, QPoly]:
        index = self.ring._basis_index
        out: Dict[int, QPoly] = {}
        for (mm, qm), c in self.nf.terms.items():
            out.setdefault(index[mm], {})[qm] = c
        return out

    def is_zero(self) -> bool:
        return self.nf.is_zero()

    def as_series(self) -> NovikovSeries:
        return self.nf

    def classical_part(self) -> Polynomial:
        return self.nf.classical_part()

    def _same_ring(self, other: "AlgebraElement"):
        # equal presentation data and truncation give equal bases, whatever the label
        a, b = self.ring.presentation, other.ring.presentation
        if self.ring is not other.ring and (
                self.ring.trunc != other.ring.trunc or a.gens != b.gens
                or a.q_vars != b.q_vars or a.relation_terms != b.relation_terms):
            raise ValueError("elements of different rings")

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            self._same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        if isinstance(other, (Polynomial, NovikovSeries)):
            return self.ring.reduce(other)
        return None

    def _one(self) -> "AlgebraElement":
        return self.ring.one()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlgebraElement(self.ring, self.nf + other.nf)

    def __neg__(self):
        return AlgebraElement(self.ring, -self.nf)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.ring, self.nf.scale(c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.reduce(self.nf * other.nf)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.nf == other.nf

    def render(self) -> str:
        return self.nf.render()

    def __repr__(self):
        return "AlgebraElement(%s)" % self.render()


def _default_key(mm: Mono, qm: Mono):
    # largest classical monomial first, ties by lowest q-degree: the
    # negation of (grevlex_key(mm), (-deg qm, reversed qm))
    return (-sum(mm), tuple(reversed(mm)), sum(qm), tuple(-e for e in reversed(qm)))


def _alternate_key(mm: Mono, qm: Mono):
    # smallest classical monomial first, ties by highest q-degree
    return (grevlex_key(mm), (-sum(qm), tuple(reversed(qm))))


class PresentedAlgebra:
    """Quotient of the truncated series ring by a quantum presentation."""

    def __init__(self, presentation: Presentation, trunc: int):
        self.presentation = presentation
        self.gens = presentation.gens
        self.q_vars = presentation.q_vars
        self.trunc = trunc
        self.relations = presentation.relations_at(trunc)

        classical = [r.classical_part() for r in self.relations]
        if any(c.is_zero() for c in classical):
            raise ValueError("relation with zero classical part")
        tails = [r.q_tail() for r in self.relations]

        self.gdata: GroebnerData = groebner(classical)
        if not is_zero_dimensional(self.gdata):
            raise ValueError("classical ideal of %r is not zero-dimensional"
                             % presentation.label)
        self.basis_monos: List[Mono] = standard_monomials(self.gdata)
        self._basis_index = {m: i for i, m in enumerate(self.basis_monos)}

        # quantum corrections: g_i rewrites to h_i - (g_i - lm(g_i))
        self._rules = []
        for g, row in zip(self.gdata.basis, self.gdata.cofactors):
            lm, _ = g.leading()
            rest = g - Polynomial(self.gens, {lm: Fraction(1)})
            correction = NovikovSeries.zero(self.gens, self.q_vars, trunc)
            for u, tail in zip(row, tails):
                if u.is_zero() or tail.is_zero():
                    continue
                correction = correction - u * tail
            mq = correction.min_q_degree()
            if mq is not None and mq < 1:
                raise AssertionError("quantum correction with classical terms")
            self._rules.append((lm, rest, correction))

    @property
    def label(self) -> str:
        return self.presentation.label

    def classical_dim(self) -> int:
        return len(self.basis_monos)

    # element constructors

    def constant(self, c) -> AlgebraElement:
        if self.gens.zero_mono() not in self._basis_index:  # unit ideal
            return self.zero()
        return AlgebraElement(self, NovikovSeries.const(self.gens, self.q_vars, self.trunc, c))

    def one(self) -> AlgebraElement:
        return self.constant(1)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, NovikovSeries.zero(self.gens, self.q_vars, self.trunc))

    def generator(self, name: str) -> AlgebraElement:
        return self.reduce(Polynomial.var(self.gens, name))

    def q_element(self, name: str, power: int = 1) -> AlgebraElement:
        s = NovikovSeries.q_gen(self.gens, self.q_vars, self.trunc, name, power)
        return self.reduce(s)

    def series(self, x) -> NovikovSeries:
        if isinstance(x, NovikovSeries):
            if x.main_vars != self.gens or x.q_vars != self.q_vars:
                raise ValueError("series over wrong variable sets")
            if x.trunc != self.trunc:
                raise ValueError("series truncation %d does not match ring truncation %d"
                                 % (x.trunc, self.trunc))
            return x
        if isinstance(x, Polynomial):
            return NovikovSeries.from_polynomial(x, self.q_vars, self.trunc)
        if isinstance(x, (int, Fraction)):
            return NovikovSeries.const(self.gens, self.q_vars, self.trunc, x)
        if isinstance(x, AlgebraElement):
            return x.as_series()
        raise TypeError("cannot interpret %r as a ring element" % (x,))

    # reduction

    def _find_rule(self, mm: Mono, last: bool = False):
        found = None
        for rule in self._rules:
            if mono_divides(rule[0], mm):
                if not last:
                    return rule
                found = rule
        return found

    def _reduce_terms(self, terms: Dict[Tuple[Mono, Mono], Fraction],
                      strategy: str = "default") -> Dict[Tuple[Mono, Mono], Fraction]:
        alternate = strategy != "default"
        heap_key = _alternate_key if alternate else _default_key
        zero = Fraction(0)
        work: Dict[Tuple[Mono, Mono], Fraction] = {}
        heap: list = []
        out: Dict[Tuple[Mono, Mono], Fraction] = {}
        # matching rule per classical monomial, looked up once per call
        rules: Dict[Mono, Optional[tuple]] = {}

        def rule_for(mm):
            if mm not in rules:
                rules[mm] = self._find_rule(mm, last=alternate)
            return rules[mm]

        def emit(mm, qm, coeff):
            key = (mm, qm)
            v = out.get(key, zero) + coeff
            if v:
                out[key] = v
            else:
                out.pop(key, None)

        def bump(key, delta):
            # an irreducible term never becomes reducible, so the
            # alternate strategy emits it at once and keeps it off the heap
            if alternate and rule_for(key[0]) is None:
                emit(key[0], key[1], delta)
                return
            old = work.get(key, zero)
            v = old + delta
            if v:
                if not old:
                    heapq.heappush(heap, (heap_key(*key), key))
                work[key] = v
            else:
                work.pop(key, None)

        for key, c in terms.items():
            if c != 0:
                bump(key, Fraction(c))

        while heap:
            key = heapq.heappop(heap)[1]
            coeff = work.pop(key, None)
            if coeff is None:  # cancelled after it was pushed
                continue
            mm, qm = key
            rule = rule_for(mm)
            if rule is None:
                emit(mm, qm, coeff)
                continue
            lm, rest, correction = rule
            quot = mono_div(mm, lm)
            for m, c in rest.terms.items():
                bump((mono_mul(m, quot), qm), -coeff * c)
            for (m2, q2), c2 in correction.terms.items():
                qnew = mono_mul(qm, q2)
                if sum(qnew) > self.trunc:
                    continue
                bump((mono_mul(m2, quot), qnew), coeff * c2)
        return out

    def reduce(self, x, strategy: str = "default") -> AlgebraElement:
        if isinstance(x, AlgebraElement) and strategy == "default":
            return x
        nf = self._reduce_terms(self.series(x).terms, strategy)
        return AlgebraElement(self, NovikovSeries(self.gens, self.q_vars, self.trunc, nf))

    # matrices and tables

    def basis_element(self, i: int) -> AlgebraElement:
        key = (self.basis_monos[i], self.q_vars.zero_mono())
        return AlgebraElement(self, NovikovSeries(self.gens, self.q_vars, self.trunc, {key: 1}))

    def mult_matrix(self, a: AlgebraElement) -> List[List[Polynomial]]:
        """M[i][j] = coefficient of basis i in a * basis j, over q_vars."""
        n = len(self.basis_monos)
        cols = [(a * self.basis_element(j)).coords for j in range(n)]
        return [[Polynomial(self.q_vars, cols[j].get(i, {})) for j in range(n)]
                for i in range(n)]

    def structure_constants(self) -> Dict[Tuple[int, int], Dict[int, QPoly]]:
        n = len(self.basis_monos)
        table = {}
        for i in range(n):
            for j in range(i, n):
                table[(i, j)] = (self.basis_element(i) * self.basis_element(j)).coords
        return table

    def render_basis(self) -> List[str]:
        out = []
        for m in self.basis_monos:
            s = self.gens.render_mono(m)
            out.append(s if s else "1")
        return out

    def render_qpoly(self, qp: QPoly) -> str:
        items = sorted(qp.items(), key=lambda t: (sum(t[0]), tuple(-e for e in reversed(t[0]))))
        return _render_terms([(c, self.q_vars.render_mono(qm)) for qm, c in items])

    def random_series(self, rng: random.Random, max_extra_degree: int = 2) -> NovikovSeries:
        """Random expression in generators and q variables, for self-checks."""
        top = max((sum(m) for m in self.basis_monos), default=0) + max_extra_degree
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            mm = tuple(rng.randrange(0, top + 1) for _ in self.gens.names)
            qm = [0] * len(self.q_vars)
            budget = rng.randrange(0, self.trunc + 1)
            for _ in range(budget):
                if not qm:
                    break
                qm[rng.randrange(len(qm))] += 1
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            if coeff == 0:
                continue
            key = (mm, tuple(qm))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return NovikovSeries(self.gens, self.q_vars, self.trunc, terms)

    def confluence_check(self, trials: int, seed: int) -> Check:
        """Reduce random inputs under two admissible strategies; compare."""
        if trials < 1:
            raise ValueError("trials must be at least 1, got %d" % trials)
        rng = random.Random(seed)
        details = []
        for t in range(trials):
            s = self.random_series(rng)
            a = self.reduce(s, strategy="default")
            b = self.reduce(s, strategy="alternate")
            if a != b:
                details.append("trial %d: strategies disagree on %s" % (t, s.render()))
        return Check.verdict("confluence selfcheck", not details,
                             "; ".join(details) or "%d trials, seed %d" % (trials, seed))


# ------------------------------------------------------------------
# the two determinant algorithms over polynomials in the q variables

def poly_div_exact(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact quotient in the polynomial ring; error if division leaves a rest."""
    quot, rem = divide(num, den)
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return quot


def det_bareiss(entries: List[List[Polynomial]]) -> Polynomial:
    """Fraction-free determinant over an exact polynomial ring.

    Divisions are exact at every step (Bareiss), which is sound here
    because the entries live in an integral domain; truncate afterwards.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    vars = entries[0][0].vars
    M = [[p for p in row] for row in entries]
    sign = 1
    prev = Polynomial.const(vars, 1)
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not M[r][k].is_zero()), None)
            if swap is None:
                return Polynomial.zero(vars)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = poly_div_exact(M[i][j] * M[k][k] - M[i][k] * M[k][j], prev)
            M[i][k] = Polynomial.zero(vars)
        prev = M[k][k]
    return M[n - 1][n - 1].scale(sign)


def det_expansion(entries: List[List[Polynomial]], trunc: int) -> Polynomial:
    """Division-free determinant by column-subset expansion.

    Safe directly in truncated arithmetic; used as the independent
    cross-check of the Bareiss route.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    zero = Polynomial.zero(entries[0][0].vars)
    dp = {0: Polynomial.const(zero.vars, 1)}
    for r in range(n):
        new_dp: Dict[int, Polynomial] = {}
        for mask, sub in dp.items():
            cols = [j for j in range(n) if mask & (1 << j)]
            for j in range(n):
                if mask & (1 << j) or entries[r][j].is_zero():
                    continue
                contrib = (entries[r][j] * sub).truncate(trunc)
                # parity of the number of used columns to the right of j
                if sum(1 for c in cols if c > j) % 2:
                    contrib = -contrib
                m2 = mask | (1 << j)
                new_dp[m2] = new_dp.get(m2, zero) + contrib
        dp = {m: v for m, v in new_dp.items() if not v.is_zero()}
        if not dp:
            return zero
    return dp.get((1 << n) - 1, zero)


def mat_pow(A: List[List[Polynomial]], e: int, trunc: int) -> List[List[Polynomial]]:
    """A**e for e >= 1, entries truncated above total degree trunc."""
    if e < 1:
        raise ValueError("matrix power wants a positive exponent")
    n = len(A)
    zero = Polynomial.zero(A[0][0].vars)
    out = A
    for _ in range(e - 1):
        out = [[sum((out[i][k] * A[k][j] for k in range(n)), zero).truncate(trunc)
                for j in range(n)] for i in range(n)]
    return out
