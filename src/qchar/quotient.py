"""Truncated quantum quotient rings presented by relations with q-tails.

A presentation consists of generators, Novikov variables, and relations
r_j = c_j + t_j whose classical part c_j is a nonzero polynomial in the
generators and whose tail t_j has total q-degree >= 1.  A key is flat:
the classical exponents, then the q exponents.  The classical parts get
a reduced grevlex basis g_i with cofactor rows u_{i,j}, and rule i is
the relation row  sum_j u_{i,j} * r_j: its classical part is g_i, so
it is monic at lm(g_i), and the rest of it rewrites lm(g_i) modulo the
relations.  The rows are reduced by groebner's loop, _reduce, with the
q-degree cap at the ring's truncation; this module holds no reduction
loop of its own.  Every rewrite strictly drops the (classical monomial,
q-degree) measure, so reduction terminates at any truncation order.

The default strategy keys the loop's heap with the display order (the
largest classical monomial first, ties by lowest q-degree) and takes
the first matching rule.  The alternate strategy takes the rows
reversed, so the last matching rule wins, with its own key: the
smallest classical monomial first, ties by highest q-degree.  The two
strategies share no order or rule choice, so comparing their normal
forms (confluence_check) is an independent check of the rules.

An element is held as its normal form: a NovikovSeries at the ring's
truncation whose classical monomials are standard monomials.  Reduction
emits its irreducible terms straight into that series' term map, and
sums and scalar multiples of normal forms are normal forms.

A product goes through the ring's structure constants (its
multiplication maps) and never rewrites.  The product table maps a pair
of standard monomials (m_a, m_b) to the normal form of m_a*m_b, reduced
once by _reduce_terms when the pair is first multiplied; a ring builds
no entry up front.  Each factor is grouped by classical monomial, and a
pair of groups contributes its truncated q-coefficient times the pair's
entry; entries and groups keep classical and q monomials apart, and a
product term's key is their concatenation.  This is exact: reduction is
linear, q-monomials are central, and no rewrite lowers q-degree, so an
entry reduced at the ring's truncation holds every term that survives
the q-degree cap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import (
    ONE,
    ZERO,
    Arithmetic,
    InternalError,
    Mono,
    NovikovSeries,
    Polynomial,
    VariableSet,
    _render_terms,
    grevlex_desc_key,
    grevlex_key,
    mono_mul,
)
from .groebner import (
    GroebnerData,
    _lead_row,
    _reduce,
    divide,
    groebner,
    is_zero_dimensional,
    standard_monomials,
)
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
        index, k = self.ring._basis_index, len(self.ring.gens)
        out: Dict[int, QPoly] = {}
        for m, c in self.nf.terms.items():
            out.setdefault(index[m[:k]], {})[m[k:]] = c
        return out

    def is_zero(self) -> bool:
        return self.nf.is_zero()

    def as_series(self) -> NovikovSeries:
        return self.nf

    def classical_part(self) -> Polynomial:
        return self.nf.classical_part()

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            self.ring._same_ring(other.ring)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        if isinstance(other, Polynomial):  # a series is a Polynomial
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
        ring = self.ring
        trunc, k = ring.trunc, len(ring.gens)
        terms: Dict[Mono, Fraction] = {}
        right = _by_classical(other.nf, k)
        for ma, left_q in _by_classical(self.nf, k).items():
            for mb, right_q in right.items():
                # truncated q-coefficient of the pair m_a * m_b
                coeff: Dict[Mono, Tuple[int, Fraction]] = {}
                for qa, da, ca in left_q:
                    for qb, db, cb in right_q:
                        d = da + db
                        if d > trunc:
                            continue
                        qm = mono_mul(qa, qb)
                        old = coeff.get(qm)
                        coeff[qm] = (d, ca * cb if old is None else old[1] + ca * cb)
                if not coeff:
                    continue
                entry = ring._product_entry(ma, mb)
                for qm, (d, c) in coeff.items():
                    if not c:
                        continue
                    room = trunc - d
                    for de, qe, me, ce in entry:
                        if de > room:
                            break
                        key = me + mono_mul(qm, qe)
                        terms[key] = terms.get(key, ZERO) + c * ce
        return AlgebraElement(ring, NovikovSeries(ring.gens, ring.q_vars, trunc, terms))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.nf == other.nf

    def render(self) -> str:
        return self.nf.render()

    def __repr__(self):
        return "AlgebraElement(%s)" % self.render()


def _by_classical(series: NovikovSeries,
                  k: int) -> Dict[Mono, List[Tuple[Mono, int, Fraction]]]:
    """The terms grouped by classical monomial, key[:k]: m -> [(q, deg q, c)]."""
    groups: Dict[Mono, List[Tuple[Mono, int, Fraction]]] = {}
    for m, c in series.terms.items():
        qm = m[k:]
        groups.setdefault(m[:k], []).append((qm, sum(qm), c))
    return groups


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

        self.gdata: GroebnerData = groebner(classical)
        if not is_zero_dimensional(self.gdata):
            raise ValueError("classical ideal of %r is not zero-dimensional"
                             % presentation.label)
        self.basis_monos: List[Mono] = standard_monomials(self.gdata)
        self._basis_index = {m: i for i, m in enumerate(self.basis_monos)}

        # rule i is the relation sum_j u_ij r_j, monic at lm(g_i)
        qz = self.q_vars.zero_mono()
        zero = NovikovSeries.zero(self.gens, self.q_vars, trunc)
        self._rows = []
        for i, (g, us) in enumerate(zip(self.gdata.basis, self.gdata.cofactors)):
            row = sum((u * r for u, r in zip(us, self.relations) if not u.is_zero()), zero)
            if row.classical_part() != g:
                raise InternalError("quantum correction with classical terms")
            self._rows.append(_lead_row(g.leading()[0] + qz, row, i))
        k = len(self.gens)
        # the default strategy takes the first matching rule under the
        # display order; the alternate one the last, smallest classical
        # monomial first and ties by highest q-degree
        self._default = (self._rows, zero._order_key)
        self._alternate = (self._rows[::-1],
                           lambda m: (grevlex_key(m[:k]), grevlex_desc_key(m[k:])))

        # (m_a, m_b) with m_a <= m_b -> normal form of m_a*m_b as
        # [(deg q, q, m, c)] sorted by q-degree; see _product_entry
        self._products: Dict[Tuple[Mono, Mono], List[Tuple[int, Mono, Mono, Fraction]]] = {}

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

    def q_element(self, name: str) -> AlgebraElement:
        return self.reduce(NovikovSeries.q_gen(self.gens, self.q_vars, self.trunc, name))

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
            self._same_ring(x.ring)
            return x.as_series()
        raise TypeError("cannot interpret %r as a ring element" % (x,))

    def _same_ring(self, other: "PresentedAlgebra"):
        # equal presentation data and truncation give equal bases, whatever the label
        a, b = self.presentation, other.presentation
        if self is not other and (
                self.trunc != other.trunc or a.gens != b.gens
                or a.q_vars != b.q_vars or a.relation_terms != b.relation_terms):
            raise ValueError("elements of different rings")

    # reduction

    def _reduce_terms(self, terms: Dict[Mono, Fraction],
                      strategy: str = "default") -> Dict[Mono, Fraction]:
        rows, key = self._default if strategy == "default" else self._alternate
        return _reduce(terms, rows, key=key, cap=(len(self.gens), self.trunc))

    def _product_entry(self, ma: Mono, mb: Mono) -> List[Tuple[int, Mono, Mono, Fraction]]:
        """Normal form of the standard-monomial product ma*mb, reduced on first use."""
        pair = (ma, mb) if ma <= mb else (mb, ma)
        entry = self._products.get(pair)
        if entry is None:
            k = len(self.gens)
            nf = self._reduce_terms({mono_mul(ma, mb) + self.q_vars.zero_mono(): ONE})
            entry = sorted(((sum(m[k:]), m[k:], m[:k], c) for m, c in nf.items()),
                           key=lambda t: t[0])
            self._products[pair] = entry
        return entry

    def reduce(self, x, strategy: str = "default") -> AlgebraElement:
        series = self.series(x)  # rejects an element of another ring
        if isinstance(x, AlgebraElement) and strategy == "default":
            return x
        nf = self._reduce_terms(series.terms, strategy)
        return AlgebraElement(self, NovikovSeries(self.gens, self.q_vars, self.trunc, nf))

    # matrices and tables

    def basis_element(self, i: int) -> AlgebraElement:
        key = self.basis_monos[i] + self.q_vars.zero_mono()
        return AlgebraElement(self, NovikovSeries(self.gens, self.q_vars, self.trunc, {key: 1}))

    def mult_matrix(self, a: AlgebraElement) -> List[List[Polynomial]]:
        """M[i][j] = coefficient of basis i in a * basis j, over q_vars."""
        n = len(self.basis_monos)
        cols = [(a * self.basis_element(j)).coords for j in range(n)]
        return [[Polynomial(self.q_vars, cols[j].get(i, {})) for j in range(n)]
                for i in range(n)]

    def structure_constants(self) -> Dict[Tuple[int, int], Dict[int, QPoly]]:
        """(i, j) for i <= j -> coordinates of basis i times basis j."""
        monos, index = self.basis_monos, self._basis_index
        table = {}
        for i in range(len(monos)):
            for j in range(i, len(monos)):
                coords: Dict[int, QPoly] = {}
                for _, qm, mm, c in self._product_entry(monos[i], monos[j]):
                    coords.setdefault(index[mm], {})[qm] = c
                table[(i, j)] = coords
        return table

    def render_basis(self) -> List[str]:
        out = []
        for m in self.basis_monos:
            s = self.gens.render_mono(m)
            out.append(s if s else "1")
        return out

    def render_qpoly(self, qp: QPoly) -> str:
        return _render_terms([(qp[qm], self.q_vars.render_mono(qm))
                              for qm in sorted(qp, key=grevlex_key)])

    def random_series(self, rng: random.Random) -> NovikovSeries:
        """Random expression in generators and q variables, for self-checks.

        Classical exponents reach two above the top basis degree.
        """
        top = max((sum(m) for m in self.basis_monos), default=0) + 2
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
            key = mm + tuple(qm)
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
