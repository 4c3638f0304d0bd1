"""Buchberger's algorithm over the rationals with exact cofactor tracking.

Every basis element g can carry a cofactor row u with
    g == sum_j u[j] * relations[j],
and that identity is checked exactly when the basis is built; a
failure raises InternalError.  The monomial order is graded reverse
lexicographic for the declared variable order throughout; bases are
reduced and monic.

Every generator, input or new, enters through the Gebauer-Moeller update
(J. Symbolic Comput. 6, 1988).  Of its new pairs it drops those whose lcm
another new pair's lcm properly divides (criterion M), and of those
sharing an lcm keeps the oldest, or none if one is coprime (criterion F
and the product criterion).  It drops an old pair whose lcm the new
leading monomial divides, unless its lcm with either member equals that
lcm (criterion B).  New pairs and S-polynomial reductions take the
active generators, those whose leading monomial no newer one properly
divides; tracking cofactors only keeps the rows.  Pairs are taken
smallest lcm first (the normal strategy).  The update computes on
exponent ints (below), taking new lcms in ascending int order, and
unpacks and packs only the lcms of the pairs it pushes; a pair's
S-polynomial is summed from the two generators' packed rows.

The pair loop is BuchbergerRun, the only one, and it reduces pairs only
as far as it is asked to.  groebner() drains it, then minimalizes,
tail-reduces and checks the cofactors.  mirror.MembershipContext
advances a run one new generator at a time and decides a membership as
soon as the generators found so far reduce it to zero: each is a monic
element of the ideal, so a zero remainder on division by them proves
membership, and only a non-member needs the complete basis (Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sections 3 and 6).
A run's step cap bounds all the reductions it has made so far.

_reduce is the one normal-form loop of the package.  It serves the
S-polynomial and tail reductions of Buchberger, divide and normal_form
under core.display_order, and the rewriting of the quotient rings
(quotient.PresentedAlgebra._reduce_terms), which passes its rule rows
in its own order, its own order object and a q-degree cap.

Inside the loop a monomial is one int, its packed key under a
core.MonomialOrder: integer comparison is the order, and a monomial
times a quotient is an int sum.  A reducer row is packed once, when it
is built (_lead_row): per generator in Buchberger, per basis in
GroebnerData.lead_rows, per divisor in divider, per ring and strategy in
the quotient rings.
It carries its leading monomial's packed key and every other term m as
(pack(m) - pack(lm), qdeg(m) - qdeg(lm), c), so rewriting a popped
monomial P adds pack(m) - pack(lm) to P and compares the q-degree
difference with the room the cap leaves.  The coefficient c is an int
wherever it is integral and a Fraction otherwise, so the loop computes
in int wherever the data allow.  Every key stays a tuple of exponents at
the boundary: the result's nonzero terms and usage are unpacked once
each, at the end.  A cap reads a monomial's q-degree off its packed int
P: P ^ C, masked to the lowest fields, holds the q exponents, and as
2^16 = 1 modulo 2^16 - 1, their sum (below 2^15) is that int modulo
2^16 - 1.  The packing never wraps: _reduce bounds the total degree any
call can reach before it starts (a grevlex rewrite never raises it; a
quotient rewrite raises it only through a row term of positive q-degree,
at most trunc times, each time by at most the rows' excess) and raises
ValueError if the order's fields cannot hold that degree.

Divisibility is exact int arithmetic on the exponent fields of the
packing.  The n trailing 16-bit fields of a packed key P_b hold b's
exponents as e + 2^15, and a reducer row carries E_a, a's exponents in
the same fields without the offset (the exponent int of a).  Field by
field, P_b - E_a holds b_i - a_i + 2^15, which stays inside the field
while every exponent is below 2^15; so no field borrows from the next,
and a divides b exactly when (P_b - E_a) & H == H, where H
(MonomialOrder.guard) holds the top bit of every exponent field.  The
same borrow gives lcms: (E_a + H - E_b) & H marks the fields where
a_i >= b_i, and lcm(a, b) takes those fields from E_a and the rest from
E_b.  a and b are coprime exactly when E_lcm == E_a + E_b, a field-wise
sum below 2^16.  A proper divisor of an exponent int is a smaller int.
Every exponent is below 2^15 because order.check, which _lead_row and
every _reduce call run, keeps every total degree below it.  The test
assumes nonnegative exponents: groebner, divide and normal_form work in
the polynomial ring and raise ValueError on a negative exponent (a
Laurent element must have its denominators cleared first, as
mirror.MembershipContext does) and on an operand over another variable
set.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .core import (
    Coeff,
    InternalError,
    Mono,
    MonomialOrder,
    Polynomial,
    VariableSet,
    display_order,
    exact_coeff,
    mono_div,
    mono_divides,
)


class StepCapExceeded(RuntimeError):
    """Raised when a reduction exceeds its step budget."""

    def __init__(self, cap: int, steps: int):
        super().__init__("reduction step cap of %d exceeded" % cap)
        self.cap = cap
        self.steps = steps


class _Budget:
    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.steps = 0

    def spend(self):
        self.steps += 1
        if self.cap is not None and self.steps > self.cap:
            raise StepCapExceeded(self.cap, self.steps)

    def check(self):
        """Raise again if the cap was already exceeded."""
        if self.cap is not None and self.steps > self.cap:
            raise StepCapExceeded(self.cap, self.steps)


class GroebnerData:
    """Reduced monic basis plus cofactors over the original relations.

    `cofactors` is empty when the basis was built without tracking.
    """

    def __init__(self, vars: VariableSet, basis: List[Polynomial],
                 cofactors: List[List[Polynomial]], relations: List[Polynomial],
                 steps: int = 0):
        self.vars = vars
        self.basis = basis
        self.cofactors = cofactors  # basis[i] == sum_j cofactors[i][j]*relations[j]
        self.relations = relations
        self.steps = steps

    def leading_monomials(self) -> List[Mono]:
        return [row[0] for row in self.lead_rows]

    @cached_property
    def lead_rows(self) -> List[LeadRow]:
        """Reducer rows of the basis, built once and shared by every normal form."""
        return [_lead_row(g.leading()[0], g.terms.items(), i)
                for i, g in enumerate(self.basis)]


def _lcm(a: int, b: int, guard: int, top: int = MonomialOrder.WIDTH - 1) -> int:
    """The lcm of two exponent ints, given their fields' guard bits (module
    docstring); `top`, a constant, is the guard bit's place in a field."""
    ge = (a + guard - b) & guard  # the guard bit of each field where a's exponent >= b's
    return b ^ ((a ^ b) & (ge - (ge >> top)))


# one monic reducer: (leading monomial lm, term items, reducer id, exponent
# int of lm, packing, packed lm, rel, excess).  packing is (order, k): rel lists
# the terms m != lm as (pack(m) - pack(lm), qdeg(m) - qdeg(lm), c) under
# that order, with qdeg summing the exponents from slot k on, and excess is
# the most a term with qdeg(m) > qdeg(lm) adds to the total degree.  A
# coefficient c, in items and in rel, is an int when it is integral and a
# Fraction otherwise (core.exact_coeff).
LeadRow = Tuple[Mono, List[Tuple[Mono, Coeff]], int, int,
                Tuple[MonomialOrder, int], int, List[Tuple[int, int, Coeff]], int]


def _lead_row(lm: Mono, items: Iterable[Tuple[Mono, Coeff]], gid: int,
              order: Optional[MonomialOrder] = None, k: Optional[int] = None) -> LeadRow:
    """The reducer row of a monic element led by lm, packed once under `order`
    (core.display_order by default) with q-degrees from slot k on (none by
    default), each coefficient put in its exact_coeff form.

    No term may have less q-degree than lm, and a term of the same
    q-degree may not have more total degree: _reduce bounds the degrees
    it can reach by that.
    """
    items = [(m, exact_coeff(c)) for m, c in items]
    if order is None:
        order = display_order(len(lm))
    if k is None:
        k = len(lm)
    order.check(max(sum(m) for m, _ in items))
    plm, dlm, qlm = order.pack(lm), sum(lm), sum(lm[k:])
    rel, excess = [], 0
    for m, c in items:
        if m == lm:
            continue
        dq, rise = sum(m[k:]) - qlm, sum(m) - dlm
        if dq < 0 or (dq == 0 and rise > 0):
            raise ValueError("term %r of a reducer row outranks its leading monomial %r"
                             % (m, lm))
        if rise > excess:
            excess = rise
        rel.append((order.pack(m) - plm, dq, c))
    return (lm, items, gid, (plm - order.C) & order.low, (order, k), plm, rel, excess)


def _check_operands(vars: VariableSet, *polys: Polynomial) -> None:
    """The ideal routines work in the polynomial ring over `vars`: refuse
    an operand over other variables or with a negative exponent."""
    for p in polys:
        if p.vars != vars:
            raise ValueError("operands over different variable sets")
        if any(vars.laurent):
            for m in p.terms:
                if min(m) < 0:
                    raise ValueError(
                        "negative exponent in monomial %s: the ideal routines work in "
                        "the polynomial ring; clear denominators first"
                        % vars.render_mono(m))


def _reduce(terms: Dict[Mono, Fraction], rows: List[LeadRow],
            budget: Optional[_Budget] = None,
            usage: Optional[Dict[int, Dict[Mono, Fraction]]] = None,
            order: Optional[MonomialOrder] = None,
            cap: Optional[Tuple[int, int]] = None,
            degree: Optional[int] = None) -> Dict[Mono, Fraction]:
    """Full normal form of the term map `terms` against monic reducer rows.

    `rows` are _lead_row tuples packed under `order` (core.display_order
    by default) with the cap's k (the number of variables without a cap).
    A term is rewritten by the first row whose leading monomial divides
    it.  The scan for that row tests each row's exponent int against the
    term's packed key by the exact guard-bit test of the module docstring;
    under a cap its q-degree is read off the packed key too.  Exponents
    must be nonnegative.

    Inside the loop a monomial is its packed int (core.MonomialOrder).
    The working terms live in a dict keyed by it, their order in a heap of
    the ints themselves (ascending), with lazy deletion: a popped monomial
    whose term has since cancelled is skipped.  The first dividing row is
    memoised per monomial when it is popped, with the room left under the
    cap; a rewrite then adds each row term's packed difference to the
    popped int and compares its q-degree difference with that room.  A
    term of a monomial already known irreducible goes straight to the
    result.  With cap = (k, trunc), a term whose exponents from slot k on
    sum above trunc is dropped.  Irreducible terms stay keyed by packed
    int, and at the end only the nonzero ones are unpacked, as the
    result's keys; `usage` is unpacked at the end too.

    The packing is exact: before the loop, the largest total degree the
    call can reach is checked against the order's field width, and a
    bound that does not fit raises ValueError.  A rewrite by a term with
    no more q-degree than the row's leading monomial never raises the
    total degree (the rows are led by their largest such term), and any
    other term raises the q-degree, which the cap holds to trunc; so no
    chain of rewrites raises it more than trunc times, each time by at
    most the rows' excess.  Without a cap every row term is of the first
    kind, and the reachable degree is the input's.

    With `degree` given, `terms` is already keyed by packed ints under
    `order`, of total degree at most `degree`: Buchberger's S-polynomials.

    When `usage` is given it accumulates, per reducer id, the factor s with
        terms == result + sum_id s_id * reducer_id.
    The loop only adds, subtracts and multiplies coefficients, and ints
    and Fractions mix exactly: the rows hold an int wherever a
    coefficient is integral (exact_coeff), so Buchberger's S-polynomials
    start in int, and the quotient rings rewrite int numerators.
    """
    if not terms:
        return {}
    packed = degree is not None
    if not packed:
        n = len(next(iter(terms)))
        if order is None:
            order = display_order(n)
        if n and min(map(min, terms)) < 0:
            raise ValueError("negative exponent in a term to reduce")
        degree = max(map(sum, terms))
    if cap is None:
        # rows packed with no q-slice never raise the total degree
        qk, trunc, excess = len(order.cols), 0, 0
    else:
        qk, trunc = cap
        excess = max([row[7] for row in rows], default=0)
    # a row is used only after its packing is checked, so the bound holds
    packing = (order, qk)
    order.check(degree + trunc * excess)

    pack, unpack, C, H = order.pack, order.unpack, order.C, order.guard
    # the q-degree of P is (P ^ C) & qmask modulo fold (module docstring)
    qmask, fold = order.low >> order.WIDTH * qk, 2 * order.OFF - 1
    work = ({P: c for P, c in terms.items() if c} if packed
            else {pack(m): c for m, c in terms.items() if c})
    heap = list(work)
    heapq.heapify(heap)
    out: Dict[int, Coeff] = {}  # every monomial known irreducible -> coefficient
    # packed monomial -> (rel, room under the cap, reducer id, packed quotient)
    hits: Dict[int, Tuple[List[Tuple[int, int, Fraction]], int, int, int]] = {}
    packed_usage: Dict[int, Dict[int, Fraction]] = {}
    heappop, heappush, work_get, work_pop = heapq.heappop, heapq.heappush, work.get, work.pop
    while heap:
        P = heappop(heap)
        coeff = work_pop(P, None)
        if coeff is None:
            continue
        hit = hits.get(P)
        if hit is None:
            for row in rows:
                if (P - row[3]) & H == H:
                    if row[4] != packing:
                        raise InternalError("reducer row packed for another order or cap")
                    room = 0 if cap is None else trunc - ((P ^ C) & qmask) % fold
                    hit = hits[P] = (row[6], room, row[2], P - row[5] + C)
                    break
            else:
                out[P] = coeff
                continue
        if budget is not None:
            budget.spend()
        rel, room, gid, pquot = hit
        for d, dq, c in rel:
            if dq > room:
                continue
            P2 = P + d
            old = work_get(P2)
            if old is not None:
                v = old - coeff * c
                if v:
                    work[P2] = v
                else:
                    del work[P2]
            elif P2 in out:
                out[P2] -= coeff * c
            else:
                work[P2] = -coeff * c
                heappush(heap, P2)
        if usage is not None:
            slot = packed_usage.setdefault(gid, {})
            slot[pquot] = slot.get(pquot, 0) + coeff
    for gid, packed in packed_usage.items():
        slot = usage.setdefault(gid, {})
        for pquot, s in packed.items():
            quot = unpack(pquot)
            slot[quot] = slot.get(quot, 0) + s
    return {unpack(P): c for P, c in out.items() if c}


def divider(d: Polynomial) -> Callable[[Polynomial], Tuple[Polynomial, Polynomial]]:
    """p -> divide(p, d), with d's reducer row built once for every p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _check_operands(d.vars, d)
    lm, lc = d.leading()
    inv = Fraction(1) / lc  # never 1 / lc: an int lc would give a float
    rows = [_lead_row(lm, d.scale(inv).terms.items(), 0)]

    def divide_by_d(p: Polynomial) -> Tuple[Polynomial, Polynomial]:
        _check_operands(d.vars, p)
        usage: Dict[int, Dict[Mono, Fraction]] = {}
        rem = _reduce(p.terms, rows, usage=usage)
        return Polynomial(p.vars, usage.get(0, {})).scale(inv), Polynomial(p.vars, rem)

    return divide_by_d


def divide(p: Polynomial, d: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(quotient, remainder) with p == quotient * d + remainder.

    The remainder is the full normal form of p against d alone, so it is
    zero exactly when d divides p.
    """
    return divider(d)(p)


def _apply_usage(row: List[Polynomial], usage: Dict[int, Dict[Mono, Fraction]],
                 rows: List[List[Polynomial]]) -> List[Polynomial]:
    """row - sum_id s_id * rows[id], assembled once per reduction."""
    out = list(row)
    for gid, terms in usage.items():
        s = Polynomial(out[0].vars, {m: c for m, c in terms.items() if c})
        if s.is_zero():
            continue
        out = [a - s * b for a, b in zip(out, rows[gid])]
    return out


class BuchbergerRun:
    """Buchberger's pair loop over `relations`, run only as far as asked.

    Building a run enters the relations through the Gebauer-Moeller
    update and reduces nothing.  `advance` reduces pairs, smallest lcm
    first, until one yields a new generator; `basis` drains the pairs,
    then minimalizes, tail-reduces and checks the cofactors, once.  A
    pause between two pairs changes nothing, so the pairs popped, the
    steps and the basis are those of one uninterrupted loop.

    New pairs and the S-polynomial reductions take `lead_rows`, the
    active generators, so a run pops the same pairs, takes the same steps
    and returns the same basis with or without cofactors.  Cofactor rows
    are not unique; these are one valid choice, and on every catalog
    presentation they are those of the chain-criterion oracle in
    tests/test_masks.py.  `vars` and `lead_rows` make a run a divisor set
    for normal_form.  Every generator is a monic element of the ideal, so
    a zero remainder proves membership before the basis is complete.  The
    step cap bounds the whole run; once a run has exceeded it, every later
    advance or basis raises StepCapExceeded again without spending a step.
    """

    def __init__(self, relations: List[Polynomial], step_cap: Optional[int] = None,
                 track_cofactors: bool = True):
        rels = list(relations)
        if not rels:
            raise ValueError("cannot build a basis from no relations")
        vars = rels[0].vars
        _check_operands(vars, *rels)
        self.vars, self.relations, self.track_cofactors = vars, rels, track_cofactors
        self.budget = _Budget(step_cap)
        self.order = display_order(len(vars))
        self.gens: List[Polynomial] = []
        self.rows: List[List[Polynomial]] = []  # one cofactor row per generator
        self.reducers: List[LeadRow] = []  # one reducer row per generator
        self.pairs: List[Tuple[int, int, int, Mono]] = []  # heap of (-pack(lcm), i, j, lcm)
        # the active generators: no newer leading monomial properly divides theirs
        self.lead_rows: List[LeadRow] = []
        self._data: Optional[GroebnerData] = None
        for j, r in enumerate(rels):
            if not r.is_zero():
                scale = Fraction(1) / (lead := r.leading())[1]
                self.rows.append([Polynomial.const(vars, scale if t == j else 0)
                                  for t in range(len(rels))] if track_cofactors else [])
                self._add(r.scale(scale), lead[0])
        if not self.gens:
            raise ValueError("all relations are zero")

    def _add(self, g: Polynomial, lm: Mono) -> None:
        """Append the monic generator g led by lm: the Gebauer-Moeller update."""
        order, reducers, pairs, lead_rows = self.order, self.reducers, self.pairs, self.lead_rows
        C, H, low = order.C, order.guard, order.low
        k = len(self.gens)
        E = (row := _lead_row(lm, g.terms.items(), k))[3]
        # (lcm, pair, coprime), ascending, so a proper divisor comes first
        new = sorted([(L := _lcm(r[3], E, H), r[2], L == r[3] + E) for r in lead_rows])
        self.gens.append(g)
        reducers.append(row)
        # the survivors of M -> the oldest pair, None if one is coprime
        first: Dict[int, Optional[int]] = {}
        for L, t, coprime in new:
            if L in first or not any((L + H - l2) & H == H for l2 in first):
                first[L] = None if coprime else first.get(L, t)
        kept = [p for p in pairs if (-p[0] - E) & H != H
                or _lcm(reducers[p[1]][3], E, H) == (Lp := (-p[0] - C) & low)
                or _lcm(reducers[p[2]][3], E, H) == Lp]
        if len(kept) < len(pairs):  # criterion B dropped a pair; keys are unique
            pairs[:] = kept
            heapq.heapify(pairs)
        for L, t in first.items():
            if t is not None:
                m = order.unpack(C + L)
                heapq.heappush(pairs, (-order.pack(m), t, k, m))
        lead_rows[:] = [r for r in lead_rows if (r[5] - E) & H != H or r[3] == E]
        lead_rows.append(row)

    def advance(self) -> bool:
        """Reduce pairs until one yields a new generator; False once none is left."""
        self.budget.check()
        vars, reducers, rows, pairs = self.vars, self.reducers, self.rows, self.pairs
        while pairs:
            negp, i, j, lcm = heapq.heappop(pairs)
            # a term m of gens[i] times lcm / lm_i packs to pack(lcm) + pack(m) - pack(lm_i)
            spoly = {d - negp: c for d, _, c in reducers[i][6]}
            for d, _, c in reducers[j][6]:
                spoly[d - negp] = spoly.get(d - negp, 0) - c
            usage: Optional[Dict[int, Dict[Mono, Fraction]]] = {} if self.track_cofactors else None
            nf = Polynomial(vars, _reduce(spoly, self.lead_rows, self.budget, usage, self.order,
                                          degree=sum(lcm)))
            if nf.is_zero():
                continue
            scale = Fraction(1) / (lead := nf.leading())[1]
            if self.track_cofactors:
                mi, mj = mono_div(lcm, reducers[i][0]), mono_div(lcm, reducers[j][0])
                cof = [a.mul_mono(mi) - b.mul_mono(mj) for a, b in zip(rows[i], rows[j])]
                rows.append([c.scale(scale) for c in _apply_usage(cof, usage, rows)])
            else:
                rows.append([])
            self._add(nf.scale(scale), lead[0])
            return True
        return False

    def basis(self) -> GroebnerData:
        """The reduced monic basis, built by the first call."""
        if self._data is not None:
            return self._data
        while self.advance():
            pass
        vars, gens, rows, reducers = self.vars, self.gens, self.rows, self.reducers
        track_cofactors, lead_rows, H = self.track_cofactors, self.lead_rows, self.order.guard

        # minimal set, oldest of equals kept: an input's leading monomial may be another's multiple
        keep = [a[2] for a in lead_rows if not any(
            (a[5] - b[3]) & H == H and (b[3] != a[3] or b[2] < a[2]) for b in lead_rows)]

        # tail reduction against the other survivors gives the reduced basis, in
        # ascending grevlex of the leading monomials (distinct, and kept by it)
        reduced: List[Tuple[Polynomial, List[Polynomial]]] = []
        for a in sorted(keep, key=lambda a: -reducers[a][5]):
            others = [reducers[b] for b in keep if b != a]
            if others:
                usage = {} if track_cofactors else None
                nf = Polynomial(vars, _reduce(gens[a].terms, others, self.budget, usage))
                cof = _apply_usage(rows[a], usage, rows) if track_cofactors else []
            else:
                nf, cof = gens[a], rows[a]
            reduced.append((nf, cof))

        basis = [g for g, _ in reduced]
        cofactors = [u for _, u in reduced] if track_cofactors else []
        # the cofactor identity is part of the construction contract
        for g, row in zip(basis, cofactors):
            if sum((u * r for u, r in zip(row, self.relations)), Polynomial.zero(vars)) != g:
                raise InternalError("cofactor identity failed for basis element %s" % g.render())

        self._data = GroebnerData(vars=vars, basis=basis, cofactors=cofactors,
                                  relations=self.relations, steps=self.budget.steps)
        return self._data


def groebner(relations: List[Polynomial], step_cap: Optional[int] = None,
             track_cofactors: bool = True) -> GroebnerData:
    """Reduced monic grevlex basis of the ideal spanned by `relations`."""
    return BuchbergerRun(relations, step_cap, track_cofactors).basis()


def normal_form(p: Polynomial, divisors, step_cap: Optional[int] = None) -> Polynomial:
    """Remainder of p on division by `divisors`, a GroebnerData or a BuchbergerRun.

    Against a basis the remainder is zero iff p is in the ideal.  Against
    the generators a run has found so far, zero proves membership, and a
    nonzero remainder decides it only once the run is exhausted.
    """
    _check_operands(divisors.vars, p)
    return Polynomial(p.vars, _reduce(p.terms, divisors.lead_rows, _Budget(step_cap)))


def is_zero_dimensional(gdata: GroebnerData) -> bool:
    """Each variable must show up as a pure power among leading monomials."""
    lms = gdata.leading_monomials()
    if any(sum(m) == 0 for m in lms):
        return True  # unit ideal
    n = len(gdata.vars)
    for v in range(n):
        if not any(m[v] > 0 and all(m[w] == 0 for w in range(n) if w != v) for m in lms):
            return False
    return True


def standard_monomials(gdata: GroebnerData) -> List[Mono]:
    """Monomials not divisible by any leading monomial, ascending grevlex.

    Finite exactly when the ideal is zero-dimensional.
    """
    if not is_zero_dimensional(gdata):
        raise ValueError("ideal is not zero-dimensional; monomial basis is infinite")
    lms = gdata.leading_monomials()
    if any(sum(m) == 0 for m in lms):
        return []
    n = len(gdata.vars)
    bounds = []
    for v in range(n):
        powers = [m[v] for m in lms if m[v] > 0 and all(m[w] == 0 for w in range(n) if w != v)]
        bounds.append(min(powers))
    monos = [m for m in product(*[range(b) for b in bounds])
             if not any(mono_divides(lm, m) for lm in lms)]
    monos.sort(key=display_order(n).sort_key(monos), reverse=True)
    return monos
