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
reversed, so the last matching rule wins, under an order compatible
with the measure: the lowest q-degree first, then the largest classical
monomial.  A rewrite raises the q-degree, or keeps it and lowers the
classical monomial, so it lands above the monomial it rewrites, and the
loop rewrites each monomial once; under the default order a rewrite
through a q-term can reach a monomial already popped, which is then
rewritten again.  A pop order changes the cost of a normal form, never
the form: with one rule per monomial, rewriting is linear and
terminates, so a term map's normal form is the sum of its monomials'.
Only the rule choice can change it, so comparing the two strategies'
normal forms (confluence_check) tests the rules.  Each order is a
core.MonomialOrder of grevlex blocks, classical then q, the alternate's
headed by a q-degree row (without q variables the two orders coincide),
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
multiplication maps) and never rewrites.  The product table maps a
classical monomial m to its normal form, reduced once by _reduce when a
product first needs it; a ring builds no entry up front.  Each factor is
grouped by classical monomial, its q-terms sorted by q-degree, and a
product takes two passes.  Pass one adds each pair of groups' truncated
q-coefficient into one dict per product monomial m = m_a*m_b, and stops
a pair's inner loop at the first right term above the cap.  Pass two
reads the entry of each m with a nonzero coefficient once, and applies
it up to its first term above the cap (an entry is sorted by q-degree).
This is exact: reduction is linear, q-monomials are central, and no
rewrite lowers q-degree, so an entry reduced at the ring's truncation
holds every term that survives the cap.  An entry row also holds the
key m+q packed under the default order, and a factor's q-monomials are
packed without the order's constant, so a product key is one int sum,
its q-degree is read off one field, and the output keys, unpacked once
each, come out in display order by sorting the ints.  The ring checks
when it is built that a standard monomial times a q-monomial within the
cap fits the packed fields.

The products and the rewriting run in int, and on integral data so do
their results.  Rule rows and table entries hold each coefficient in
core's exact_coeff form, and every catalog rule is monic and integral.
_int_groups groups a factor over D, the lcm of its denominators, so a
product sums int numerators into one dict and emits them as they are
when D_a*D_b is 1, else as one Fraction per output key over D_a*D_b.
_reduce_terms scales its input to int numerators, rewrites, and divides
at the end only when D is not 1; a ring with a non-integral rule runs
the same loops with Fraction coefficients where they are needed, and
confluence_check reduces and compares a random series s as D*s, in int.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import itemgetter, mul
from typing import Dict, List, Optional, Tuple

from .core import (
    Coeff,
    InternalError,
    Mono,
    MonomialOrder,
    NovikovSeries,
    Polynomial,
    VariableSet,
    _render_terms,
    display_order,
    exact_coeff,
    mono_mul,
)
from .groebner import (
    GroebnerData,
    _lead_row,
    _reduce,
    groebner,
    is_zero_dimensional,
    standard_monomials,
)
from .report import Check

QPoly = Dict[Mono, Coeff]  # truncated polynomial in the q variables
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
        k, order = len(ring.gens), ring._default[1]
        # a q-monomial as the linear part of its packed key, so that
        # packed(m + qe) + linear(qm) is the packed key of m + qe + qm
        Da, left = _int_groups(self.terms, k, order.cols[k:])
        Db, right = _int_groups(other.terms, k, order.cols[k:])
        C, s, top = ring._room
        terms: Dict[int, int] = {}  # packed key -> numerator over Da*Db
        for m, coeff in _monomial_sums(left, right, ring.trunc).items():
            entry = ring._entry(m) if any(coeff.values()) else ()
            for qm, c in coeff.items():
                room = top - ((qm + C) >> s)  # trunc - deg qm
                for de, _, _, ce, pe in entry:
                    if de > room:
                        break
                    key = pe + qm
                    terms[key] = terms.get(key, 0) + c * ce
        # the packed keys' int order is the display order
        D, unpack = Da * Db, order.unpack
        keys = sorted(key for key, c in terms.items() if c)
        return self._trusted({unpack(key): terms[key] for key in keys} if D == 1 else
                             {unpack(key): Fraction(terms[key], D) for key in keys})

    def __repr__(self):
        return "AlgebraElement(%s)" % self.render()


def _numerators(terms: Dict[Mono, Coeff]) -> Tuple[int, Dict[Mono, int]]:
    """(D, {m: c*D}): the terms as int numerators over D, the lcm of their denominators."""
    D = math.lcm(*[c.denominator for c in terms.values()])
    return D, {m: c.numerator * (D // c.denominator) for m, c in terms.items()}


def _int_groups(terms: Dict[Mono, Fraction], k: int,
                cols: Tuple[int, ...]) -> Tuple[int, Dict[Mono, List[Tuple[int, int, int]]]]:
    """(D, groups): the int numerators over D grouped by classical monomial
    key[:k]: m -> [(q . cols, deg q, c*D)], sorted by q-degree.

    q is the rest of the key: q exponents, or a jfun.HbarPoly's hbar
    exponent, and q . cols packs it as one int.
    """
    D, nums = _numerators(terms)
    groups: Dict[Mono, List[Tuple[int, int, int]]] = {}
    for m, c in nums.items():
        qm = m[k:]
        groups.setdefault(m[:k], []).append((sum(map(mul, qm, cols)), sum(qm), c))
    for group in groups.values():
        group.sort(key=itemgetter(1))
    return D, groups


def _monomial_sums(left, right, cap) -> Dict[Mono, Dict[int, int]]:
    """Pass one of a product of two _int_groups: m_a*m_b -> {q_a + q_b: sum
    of c_a*c_b} over the pairs of groups and their q-terms of degree <= cap.

    Each group is sorted by q-degree, so a pair's inner loop stops at the
    first right term above the cap.
    """
    sums: Dict[Mono, Dict[int, int]] = {}
    for ma, left_q in left.items():
        left_q = [(qa, cap - da, ca) for qa, da, ca in left_q]
        for mb, right_q in right.items():
            coeff = sums.setdefault(mono_mul(ma, mb), {})
            for qa, room, ca in left_q:
                for qb, db, cb in right_q:
                    if db > room:
                        break
                    qm = qa + qb
                    coeff[qm] = coeff.get(qm, 0) + ca * cb
    return sums


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

        # the two strategies of the module docstring; each packs its rows once, here
        k, nq = len(self.gens), len(self.q_vars)
        default = display_order(k, nq)
        alternate = MonomialOrder(([[0] * k + [1] * nq] if nq else [])
                                  + list(MonomialOrder.grevlex((k, True), (nq, True)).rows))
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

        # deg q of a linear q-key L is the first q field of L + C, above
        # k + 2*nq fields: trunc - deg q = top - (L + C >> s).  With no q
        # variables L is 0, and the room is trunc.
        s = MonomialOrder.WIDTH * (k + 2 * nq)
        self._room = (default.C, s, trunc + (default.C >> s))
        # classical monomial m -> normal form of m; see _entry
        self._products: Dict[Mono, Entry] = {}
        self._zero = AlgebraElement(self, {})  # the space every element copies
        self._qkey = display_order(0, nq).sort_key([(trunc,) * nq])

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
        return nf if D == 1 else {m: Fraction(c, D) for m, c in nf.items()}

    def _entry(self, m: Mono) -> Entry:
        """Normal form of the classical monomial m, reduced on first use.

        [(deg q, q, m, c, packed m+q)] sorted by q-degree, with c in its
        exact_coeff form and keys packed under the default order.
        """
        entry = self._products.get(m)
        if entry is None:
            k, (rows, order) = len(self.gens), self._default
            nf = _reduce({m + self.q_vars.zero_mono(): 1}, rows,
                         order=order, cap=(k, self.trunc))
            entry = sorted(((sum(t[k:]), t[k:], t[:k], exact_coeff(c), order.pack(t))
                            for t, c in nf.items()), key=lambda t: t[0])
            self._products[m] = entry
        return entry

    def reduce(self, x, strategy: str = "default") -> AlgebraElement:
        series = self.series(x)  # rejects an element of another ring
        if isinstance(x, AlgebraElement) and strategy == "default":
            return x
        # the normal form's keys come from checked input or checked rows
        return self._zero._trusted(self._reduce_terms(series.terms, strategy))

    # matrices and tables

    def basis_element(self, i: int) -> AlgebraElement:
        return self._zero._trusted({self.basis_monos[i] + self.q_vars.zero_mono(): 1})

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
                for _, qm, mm, c, _ in self._entry(mono_mul(monos[i], monos[j])):
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
        """A coordinate of an element, its q-monomials within the cap, in display order."""
        return _render_terms([(qp[qm], self.q_vars.render_mono(qm))
                              for qm in sorted(qp, key=self._qkey)])

    def random_series(self, rng: random.Random) -> NovikovSeries:
        """Random expression in generators and q variables, for self-checks.

        Classical exponents reach two above the top basis degree.
        """
        top = max((sum(m) for m in self.basis_monos), default=0) + 2
        nq, draw, terms = len(self.q_vars), rng.randrange, {}
        for _ in range(draw(1, 7)):
            mm = tuple([draw(top + 1) for _ in self.gens.names])
            qm = [0] * nq
            budget = draw(self.trunc + 1)  # drawn with or without q variables
            for _ in range(budget if nq else 0):
                qm[draw(nq)] += 1
            num, den = draw(-6, 7), draw(1, 4)
            if num:
                key = mm + tuple(qm)
                terms[key] = terms.get(key, 0) + Fraction(num, den)
        return NovikovSeries(self.gens, self.q_vars, self.trunc, terms)

    def confluence_check(self, trials: int, seed: int) -> Check:
        """Reduce random inputs under two admissible strategies; compare.

        A disagreement comes from the rule priorities: with one rule per
        monomial rewriting is linear, so a pop order changes a normal
        form's cost, never the form.  The alternate order is compatible
        with the measure, so it rewrites each monomial once.  By linearity
        a trial reduces D*s, D the lcm of s's denominators, in int: its
        normal forms agree exactly when s's do.  A disagreement shows s.
        """
        if trials < 1:
            raise ValueError("trials must be at least 1, got %d" % trials)
        rng = random.Random(seed)
        details = []
        for t in range(trials):
            s = self.random_series(rng)
            ds = s._trusted(_numerators(s.terms)[1])
            if self.reduce(ds, strategy="default") != self.reduce(ds, strategy="alternate"):
                details.append("trial %d: strategies disagree on %s" % (t, s.render()))
        return Check.verdict("confluence selfcheck", not details,
                             "; ".join(details) or "%d trials, seed %d" % (trials, seed))


# ------------------------------------------------------------------
# the two determinant algorithms over polynomials in the q variables
#
# The two routes stay independent.  Bareiss eliminates over Z at integer
# points, dividing exactly at each step, and interpolates the exact
# determinant from its values there; expansion never divides, skips zero
# entries and works in truncated arithmetic.

def det_bareiss(entries: List[List[Polynomial]]) -> Polynomial:
    """Exact determinant, interpolated from fraction-free Bareiss runs over Z.

    The entries are scaled to integers.  Each variable's side, the least
    row or column sum of the entries' degrees in it, bounds the
    determinant's degree; Kronecker substitution reads the grid of sides
    as one variable t, Bareiss finds the value at each integer t with
    exact divisions (a remainder raises InternalError), and Newton's
    forward differences interpolate (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 5).  When each nonzero entry (i, j) is
    homogeneous of total degree col_j - row_i, the determinant is of
    degree D = sum col - sum row, so the first variable is set to 1 and
    no side exceeds D: qh_fl(n) takes n+1 points.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    vars = entries[0][0].vars
    L = math.lcm(*(c.denominator for row in entries for p in row for c in p.terms.values()))
    rows = [{j: [(m, int(c * L)) for m, c in p.terms.items()] for j, p in enumerate(row) if p.terms}
            for row in entries]  # row i: {j: [(m, c * L)]}
    if any(min(m, default=0) < 0 for row in rows for terms in row.values() for m, _ in terms):
        raise ValueError("det_bareiss needs polynomial entries: clear denominators first")
    D = _grade(rows) if all(rows) and len(set().union(*rows)) == n else -1
    if D is not None and D < 0:  # a zero row or column, or no perfect matching
        return Polynomial.zero(vars)
    sides = [min(sum(max(m[v] for terms in row.values() for m, _ in terms) for row in rows),
                 sum(max(m[v] for row in rows for m, _ in row.get(j, ())) for j in range(n)))
             for v in range(len(vars))]
    if D is not None and sides:
        sides = [0] + [min(b, D) for b in sides[1:]]
    K = [math.prod(a + 1 for a in sides[:v]) if b else 0 for v, b in enumerate(sides)]
    F, coeffs = _interpolate([_int_det([[sum(c * t ** sum(map(mul, K, m)) for m, c in row[j])
                                         if j in row else 0 for j in range(n)] for row in rows])
                              for t in range(math.prod(b + 1 for b in sides))])
    terms = {}
    for e, c in enumerate(coeffs):
        m = [e // k % (b + 1) if k else 0 for k, b in zip(K, sides)]
        if D is not None and m:
            m[0] = D - sum(m)
        terms[tuple(m)] = Fraction(c, F * L ** n)
    return Polynomial(vars, terms)


def _grade(rows) -> Optional[int]:
    """sum col - sum row when every nonzero entry (i, j) is homogeneous of
    total degree col_j - row_i, else None; no row or column is zero."""
    n, pot, edges = len(rows), {}, {}
    for i, row in enumerate(rows):
        for j, terms in row.items():
            d = {sum(m) for m, _ in terms}
            if len(d) > 1:
                return None
            edges.setdefault(i, []).append((n + j, min(d)))
            edges.setdefault(n + j, []).append((i, -min(d)))
    for start in range(n):  # each component's potentials from one of its rows
        todo = [] if start in pot else [start]
        pot.setdefault(start, 0)
        while todo:
            u = todo.pop()
            for w, d in edges[u]:
                if w not in pot:
                    todo.append(w)
                if pot.setdefault(w, pot[u] + d) != pot[u] + d:
                    return None
    return sum(pot[n + j] - pot[j] for j in range(n))


def _interpolate(values: List[int]) -> Tuple[int, List[int]]:
    """(F, F * coefficients) of the polynomial of degree < N with values[t]
    at t = 0..N-1, F = (N-1)!: Newton's form, expanded by Horner's rule."""
    N, diffs, newton, poly = len(values), values, [], []
    F = math.factorial(N - 1)
    for k in range(N):
        newton.append(diffs[0] * (F // math.factorial(k)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    for k in reversed(range(N)):  # poly * (x - k) + newton[k]
        poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += newton[k]
    return F, poly


def _int_det(M: List[List[int]]) -> int:
    """Fraction-free Bareiss over Z, in place: every division is exact."""
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return 0
            M[k], M[swap], sign = M[swap], M[k], -sign
        pivot, top = M[k][k], M[k][k + 1:]
        for row in M[k + 1:]:
            mult, out = row[k], []
            for a, b in zip(row[k + 1:], top):
                q, r = divmod(a * pivot - mult * b, prev)
                if r:
                    raise InternalError("inexact Bareiss division by %d" % prev)
                out.append(q)
            row[k + 1:] = out
        prev = pivot
    return sign * M[n - 1][n - 1]


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

    Binary powering from the top bit: e.bit_length() + popcount(e) - 2
    products.  Truncating A first changes no truncated power.
    """
    if e < 1:
        raise ValueError("matrix power wants a positive exponent")
    if not A:
        raise ValueError("empty matrix")
    out = A = [[p.truncate(trunc) for p in row] for row in A]
    for bit in bin(e)[3:]:
        out = _mat_mul(out, out, trunc)
        if bit == "1":
            out = _mat_mul(out, A, trunc)
    return out


def _mat_mul(A: List[List[Polynomial]], B: List[List[Polynomial]],
             trunc: int) -> List[List[Polynomial]]:
    """A*B truncated, summing over the nonzero entries of B's columns."""
    zero = Polynomial.zero(A[0][0].vars)
    cols = [[(k, b) for k, b in enumerate(col) if b.terms] for col in zip(*B)]
    return [[sum((row[k] * b for k, b in col if row[k].terms), zero).truncate(trunc)
             for col in cols] for row in A]
