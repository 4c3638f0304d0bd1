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

The default strategy orders the loop's heap by the display order (the
largest classical monomial first, ties by lowest q-degree) and takes
the first matching rule.  The alternate strategy takes the rows
reversed, so the last matching rule wins, with its own order: the
smallest classical monomial first, ties by highest q-degree.  The two
strategies share no order or rule choice, so comparing their normal
forms (confluence_check) is an independent check of the rules.  Each
order is a core.MonomialOrder of two grevlex blocks, classical then q,
and each strategy's rows are packed under its order once, when the ring
is built: inside _reduce a key is one int, and a rewrite is an int sum
plus one comparison of q-degrees against the cap.  Every rule is led by
a q-free monomial, so a rewrite raises the classical degree only
through a row term of positive q-degree, which happens at most trunc
times in a chain; _reduce checks the degree that bound allows against
the packed field width before it starts, so a key never wraps.

An element is a normal-form series: AlgebraElement is a NovikovSeries
at the ring's truncation, with a ring slot, whose classical monomials
are standard monomials.  Reduction emits its irreducible terms straight
into an element's term map.  Sums, negatives and scalar multiples of
normal forms are normal forms, so an element takes the series operators
as they are; only the product and the coercion of an operand that is
not an element of the ring (which reduces it) are its own.

A product goes through the ring's structure constants (its
multiplication maps) and never rewrites.  The product table maps a pair
of standard monomials (m_a, m_b) to the normal form of m_a*m_b, reduced
once by _reduce when the pair is first multiplied; a ring builds
no entry up front.  Each factor is grouped by classical monomial, and a
pair of groups contributes its truncated q-coefficient times the pair's
entry; entries and groups keep classical and q monomials apart, and a
product term's key is their concatenation.  This is exact: reduction is
linear, q-monomials are central, and no rewrite lowers q-degree, so an
entry reduced at the ring's truncation holds every term that survives
the q-degree cap.  An entry row also holds the key m+q packed under the
default order, and a factor's q-monomials are packed the same way
without the order's constant, so the product key of m+q and a q-monomial
is one int sum, and each output key is unpacked once.  The ring checks
when it is built that a standard monomial times a q-monomial within the
cap fits the packed fields.

The products and the rewriting run in int.  Rule rows and table entries
hold a coefficient as an int wherever it is integral (groebner's
exact_coeff), and every catalog rule is monic and integral.  _int_groups
groups a factor over D, the lcm of its denominators, so a product sums
int numerators into one dict and builds one Fraction per output key
over D_a*D_b.  _reduce_terms scales its input to int numerators,
rewrites, and divides once at the end; a ring with a non-integral rule
runs the same loops with Fraction coefficients where they are needed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
from typing import Dict, List, Tuple

from .core import (
    ONE,
    InternalError,
    Mono,
    MonomialOrder,
    NovikovSeries,
    Polynomial,
    VariableSet,
    _render_terms,
    grevlex_key,
    mono_mul,
)
from .groebner import (
    Coeff,
    GroebnerData,
    _lead_row,
    _reduce,
    divider,
    exact_coeff,
    groebner,
    is_zero_dimensional,
    standard_monomials,
)
from .report import Check

QPoly = Dict[Mono, Fraction]  # truncated polynomial in the q variables
# a product-table entry: [(deg q, q, m, c, packed m+q)], c in its
# exact_coeff form, the keys packed under the ring's default order
Entry = List[Tuple[int, Mono, Mono, Coeff, int]]


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


def _built_by_ring(name: str, use: str) -> classmethod:
    def refuse(cls, *args, **kwargs):
        raise TypeError("AlgebraElement.%s cannot build an element; use %s" % (name, use))
    return classmethod(refuse)


class AlgebraElement(NovikovSeries):
    """Element of a PresentedAlgebra: a normal-form series with a ring slot.

    A NovikovSeries at the ring's truncation whose classical monomials
    are all standard monomials, so it is the element's unique
    representative.  The constructor checks the keys, not that the terms
    are a normal form.  Nothing mutates an element.  coords is the
    derived view basis index -> q-polynomial coefficient.
    """

    __slots__ = ("ring",)
    _space_slots = ("vars", "main_vars", "q_vars", "trunc", "ring")

    def __init__(self, ring: "PresentedAlgebra", terms: Dict[Mono, Fraction]):
        self.ring = ring
        super().__init__(ring.gens, ring.q_vars, ring.trunc, terms)

    # NovikovSeries's constructors take no ring: the ring builds its elements
    zero = _built_by_ring("zero", "ring.zero()")
    const = _built_by_ring("const", "ring.constant(c)")
    gen = var = q_gen = _built_by_ring("gen", "ring.generator(name) or ring.q_element(name)")
    from_polynomial = _built_by_ring("from_polynomial", "ring.reduce(p)")

    @property
    def coords(self) -> Dict[int, QPoly]:
        index, k = self.ring._basis_index, len(self.ring.gens)
        out: Dict[int, QPoly] = {}
        for m, c in self.terms.items():
            out.setdefault(index[m[:k]], {})[m[k:]] = c
        return out

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        trunc, k = ring.trunc, len(ring.gens)
        order = ring._default[1]
        terms: Dict[int, Coeff] = {}  # packed key -> numerator over Da*Db
        Da, left = _int_groups(self.terms, k)
        Db, right = _int_groups(other.terms, k)
        # a q-monomial as the linear part of its packed key, so that
        # packed(m + qe) + linear(qm) is the packed key of m + qe + qm
        qcols = order.cols[k:]
        right = {mb: [(sum(map(mul, qb, qcols)), db, cb) for qb, db, cb in right_q]
                 for mb, right_q in right.items()}
        for ma, left_q in left.items():
            left_q = [(sum(map(mul, qa, qcols)), da, ca) for qa, da, ca in left_q]
            for mb, right_q in right.items():
                # truncated q-coefficient of the pair m_a * m_b
                coeff: Dict[int, Tuple[int, int]] = {}
                for qa, da, ca in left_q:
                    for qb, db, cb in right_q:
                        d = da + db
                        if d > trunc:
                            continue
                        qm = qa + qb
                        old = coeff.get(qm)
                        coeff[qm] = (d, ca * cb if old is None else old[1] + ca * cb)
                if not coeff:
                    continue
                entry = ring._product_entry(ma, mb)
                for qm, (d, c) in coeff.items():
                    if not c:
                        continue
                    room = trunc - d
                    for de, _, _, ce, pe in entry:
                        if de > room:
                            break
                        key = pe + qm
                        terms[key] = terms.get(key, 0) + c * ce
        D, unpack = Da * Db, order.unpack
        return self._trusted({unpack(key): Fraction(num, D) for key, num in terms.items() if num})

    def __repr__(self):
        return "AlgebraElement(%s)" % self.render()


def _numerators(terms: Dict[Mono, Fraction]) -> Tuple[int, Dict[Mono, int]]:
    """(D, {m: c*D}): the terms as int numerators over D, the lcm of their denominators."""
    D = math.lcm(*[c.denominator for c in terms.values()])
    return D, {m: c.numerator * (D // c.denominator) for m, c in terms.items()}


def _int_groups(terms: Dict[Mono, Fraction],
                k: int) -> Tuple[int, Dict[Mono, List[Tuple[Mono, int, int]]]]:
    """(D, groups): the int numerators over D grouped by classical monomial
    key[:k]: m -> [(q, deg q, c*D)].

    q is the rest of the key: q exponents, or a jfun.HbarPoly's hbar exponent.
    """
    D, nums = _numerators(terms)
    groups: Dict[Mono, List[Tuple[Mono, int, int]]] = {}
    for m, c in nums.items():
        qm = m[k:]
        groups.setdefault(m[:k], []).append((qm, sum(qm), c))
    return D, groups


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

        # the default strategy takes the first matching rule under the
        # display order (NovikovSeries._order_key); the alternate one the
        # last, smallest classical monomial first and ties by highest
        # q-degree.  Each packs its rows once, here.
        k, nq = len(self.gens), len(self.q_vars)
        default = MonomialOrder.grevlex((k, True), (nq, False))
        alternate = MonomialOrder.grevlex((k, False), (nq, True))
        # a product key is a standard monomial times a q-monomial in the cap
        default.check(max(map(sum, self.basis_monos), default=0) + trunc)

        # rule i is the relation sum_j u_ij r_j, monic at lm(g_i)
        qz = self.q_vars.zero_mono()
        zero = NovikovSeries.zero(self.gens, self.q_vars, trunc)
        rules = []
        for i, (g, us) in enumerate(zip(self.gdata.basis, self.gdata.cofactors)):
            row = sum((u * r for u, r in zip(us, self.relations) if not u.is_zero()), zero)
            if row.classical_part() != g:
                raise InternalError("quantum correction with classical terms")
            rules.append((g.leading()[0] + qz, row.terms.items(), i))
        self._rows = [_lead_row(lm, items, i, default, k) for lm, items, i in rules]
        self._default = (self._rows, default)
        self._alternate = ([_lead_row(lm, items, i, alternate, k)
                            for lm, items, i in reversed(rules)], alternate)

        # (m_a, m_b) with m_a <= m_b -> normal form of m_a*m_b as
        # [(deg q, q, m, c, packed m+q)] sorted by q-degree; see
        # _product_entry
        self._products: Dict[Tuple[Mono, Mono], Entry] = {}

    @property
    def label(self) -> str:
        return self.presentation.label

    def classical_dim(self) -> int:
        return len(self.basis_monos)

    # element constructors

    def constant(self, c) -> AlgebraElement:
        if self.gens.zero_mono() not in self._basis_index:  # unit ideal
            return self.zero()
        return AlgebraElement(self, {self.gens.zero_mono() + self.q_vars.zero_mono(): c})

    def one(self) -> AlgebraElement:
        return self.constant(1)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def generator(self, name: str) -> AlgebraElement:
        return self.reduce(Polynomial.var(self.gens, name))

    def q_element(self, name: str) -> AlgebraElement:
        return self.reduce(NovikovSeries.q_gen(self.gens, self.q_vars, self.trunc, name))

    def series(self, x) -> NovikovSeries:
        if isinstance(x, AlgebraElement):  # before NovikovSeries: an element is one
            self._same_ring(x.ring)
            return x
        if isinstance(x, NovikovSeries):
            if x.main_vars != self.gens or x.q_vars != self.q_vars:
                raise ValueError("series over wrong variable sets")
            if x.trunc != self.trunc:
                raise ValueError("series truncation %d does not match ring truncation %d"
                                 % (x.trunc, self.trunc))
            return x
        if isinstance(x, Polynomial):
            if x.vars != self.gens:
                raise ValueError("polynomial over wrong variable set")
            return NovikovSeries.from_polynomial(x, self.q_vars, self.trunc)
        if isinstance(x, (int, Fraction)):
            return NovikovSeries.const(self.gens, self.q_vars, self.trunc, x)
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
        """The normal form of a term map, rewritten over int numerators."""
        if strategy == "default":
            rows, order = self._default
        elif strategy == "alternate":
            rows, order = self._alternate
        else:
            raise ValueError("unknown rewrite strategy %r: use 'default' or 'alternate'"
                             % (strategy,))
        D, nums = _numerators(terms)
        nf = _reduce(nums, rows, order=order, cap=(len(self.gens), self.trunc))
        return {m: Fraction(c, D) for m, c in nf.items()}

    def _product_entry(self, ma: Mono, mb: Mono) -> Entry:
        """Normal form of the standard-monomial product ma*mb, reduced on first use.

        [(deg q, q, m, c, packed m+q)] sorted by q-degree, with c in its
        exact_coeff form and keys packed under the default order.
        """
        pair = (ma, mb) if ma <= mb else (mb, ma)
        entry = self._products.get(pair)
        if entry is None:
            k, (rows, order) = len(self.gens), self._default
            nf = _reduce({mono_mul(ma, mb) + self.q_vars.zero_mono(): 1}, rows,
                         order=order, cap=(k, self.trunc))
            entry = sorted(((sum(m[k:]), m[k:], m[:k], exact_coeff(c), order.pack(m))
                            for m, c in nf.items()), key=lambda t: t[0])
            self._products[pair] = entry
        return entry

    def reduce(self, x, strategy: str = "default") -> AlgebraElement:
        series = self.series(x)  # rejects an element of another ring
        if isinstance(x, AlgebraElement) and strategy == "default":
            return x
        # the normal form's keys come from checked input or checked rows
        return self.zero()._trusted(self._reduce_terms(series.terms, strategy))

    # matrices and tables

    def basis_element(self, i: int) -> AlgebraElement:
        return self.zero()._trusted({self.basis_monos[i] + self.q_vars.zero_mono(): ONE})

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
                for _, qm, mm, c, _ in self._product_entry(monos[i], monos[j]):
                    coords.setdefault(index[mm], {})[qm] = Fraction(c)
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
#
# Each routine here skips zero entries, which changes no result, and the
# two routes stay independent: Bareiss divides exactly over untruncated
# polynomials, expansion never divides and works in truncated arithmetic.

def det_bareiss(entries: List[List[Polynomial]]) -> Polynomial:
    """Fraction-free determinant over an exact polynomial ring.

    Divisions are exact at every step (Bareiss), which is sound here
    because the entries live in an integral domain; truncate afterwards.
    A remainder would break that invariant and raises InternalError.
    A zero multiplier M[i][k] leaves the numerator M[i][j]*M[k][k], and
    a zero numerator is stored without a division.  Each pivot step
    builds its divisor's reducer row once (groebner.divider).
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
        pivot, top, by_prev = M[k][k], M[k], divider(prev)
        for i in range(k + 1, n):
            row, mult = M[i], M[i][k]
            for j in range(k + 1, n):
                num = row[j] * pivot
                if mult.terms and top[j].terms:
                    num = num - mult * top[j]
                if num.terms:
                    num, rem = by_prev(num)
                    if rem.terms:
                        raise InternalError("inexact Bareiss division by %s" % prev.render())
                row[j] = num
            row[k] = Polynomial.zero(vars)
        prev = pivot
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
    for row in entries:
        nonzero = [(j, 1 << j, p) for j, p in enumerate(row) if p.terms]
        new_dp: Dict[int, Polynomial] = {}
        for mask, sub in dp.items():
            for j, bit, p in nonzero:
                if mask & bit:
                    continue
                contrib = (p * sub).truncate(trunc)
                # parity of the number of used columns to the right of j
                if (mask >> (j + 1)).bit_count() % 2:
                    contrib = -contrib
                new_dp[mask | bit] = new_dp.get(mask | bit, zero) + contrib
        dp = {m: v for m, v in new_dp.items() if v.terms}
        if not dp:
            return zero
    return dp.get((1 << n) - 1, zero)


def mat_pow(A: List[List[Polynomial]], e: int, trunc: int) -> List[List[Polynomial]]:
    """A**e for e >= 1, entries truncated above total degree trunc.

    Each product entry sums over the nonzero entries of A's column and
    skips a zero left factor.
    """
    if e < 1:
        raise ValueError("matrix power wants a positive exponent")
    n = len(A)
    if n == 0:
        raise ValueError("empty matrix")
    zero = Polynomial.zero(A[0][0].vars)
    cols = [[(k, A[k][j]) for k in range(n) if A[k][j].terms] for j in range(n)]
    out = A
    for _ in range(e - 1):
        out = [[sum((row[k] * a for k, a in col if row[k].terms), zero).truncate(trunc)
                for col in cols] for row in out]
    return out if e > 1 else [[p.truncate(trunc) for p in row] for row in A]
