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
lcm (criterion B).  Without cofactors, new pairs and S-polynomial
reductions take the active generators, those whose leading monomial no
newer one properly divides.  Cofactor rows are not unique and the
quotient rings build their rules from them, so with cofactors both take
every generator, oldest first, which gives the rows of the plain
chain-criterion Buchberger (the oracle of tests/test_masks.py).  Pairs
are taken smallest lcm first (the normal strategy); each pair's lcm is
computed once, at push, and its S-polynomial is summed from the two
generators' packed rows and enters _reduce packed.

_reduce is the one normal-form loop of the package.  It serves the
S-polynomial and tail reductions of Buchberger, divide and normal_form
under descending grevlex, and the rewriting of the quotient rings
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
in int wherever the data allow.  Every key stays a tuple of
exponents at the boundary: a monomial is unpacked once, when it is first
popped, and the result and usage come out as tuples.  The packing never
wraps: _reduce bounds the total degree any call can reach before it
starts (a grevlex rewrite never raises it; a quotient rewrite raises it
only through a row term of positive q-degree, at most trunc times, each
time by at most the rows' excess) and raises ValueError if the order's
fields cannot hold that degree.

Divisibility tests go through masks first.  A monomial's mask is an int
holding a thermometer code of seven bits per variable: bit 7*i + t is
set when e_i > t.  If a divides b, every bit of mask(a) is in mask(b),
so a divisor scan skips a candidate when mask(a) & ~mask(b) is nonzero
and calls mono_divides only on the candidates that pass; an exponent
above 7 only makes the mask coarser.  Reducer rows carry the mask of
their leading monomial, and Buchberger keeps one per leading monomial.
mask(lcm(a, b)) is mask(a) | mask(b), which prefilters the pair
criteria's divisibility tests, and a and b are coprime exactly when
their masks share no bit.  The masks assume nonnegative exponents:
groebner, divide and normal_form work in the polynomial ring and raise
ValueError on a negative exponent (a Laurent element must have its
denominators cleared first, as mirror.MembershipContext does) and on an
operand over another variable set.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .core import (
    ZERO,
    InternalError,
    Mono,
    MonomialOrder,
    Polynomial,
    VariableSet,
    grevlex_desc_order,
    grevlex_key,
    mono_div,
    mono_divides,
)


Coeff = Union[int, Fraction]


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


def lcm_mono(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


_THERMO = [(1 << t) - 1 for t in range(8)]  # the low t bits set


def mono_mask(mono: Mono) -> int:
    """The divisibility mask of a nonnegative monomial: bit 7*i + t is set when e_i > t."""
    mask = 0
    for e in reversed(mono):
        mask = (mask << 7) | _THERMO[e if e < 7 else 7]
    return mask


# one monic reducer: (leading monomial lm, term items, reducer id, mask of
# lm, packing, packed lm, rel, excess).  packing is (order, k): rel lists
# the terms m != lm as (pack(m) - pack(lm), qdeg(m) - qdeg(lm), c) under
# that order, with qdeg summing the exponents from slot k on, and excess is
# the most a term with qdeg(m) > qdeg(lm) adds to the total degree.  A
# coefficient c, in items and in rel, is an int when it is integral and a
# Fraction otherwise (exact_coeff).
LeadRow = Tuple[Mono, List[Tuple[Mono, Coeff]], int, int,
                Tuple[MonomialOrder, int], int, List[Tuple[int, int, Coeff]], int]


def exact_coeff(c: Coeff) -> Coeff:
    """c as an int when it is integral, else the Fraction c: the one form
    of a reducer row's and a product-table entry's coefficients."""
    return c.numerator if c.denominator == 1 else c


def _lead_row(lm: Mono, items: Iterable[Tuple[Mono, Coeff]], gid: int,
              order: Optional[MonomialOrder] = None, k: Optional[int] = None) -> LeadRow:
    """The reducer row of a monic element led by lm, packed once under `order`
    (descending grevlex by default) with q-degrees from slot k on (none by
    default), each coefficient put in its exact_coeff form.

    No term may have less q-degree than lm, and a term of the same
    q-degree may not have more total degree: _reduce bounds the degrees
    it can reach by that.
    """
    items = [(m, exact_coeff(c)) for m, c in items]
    if order is None:
        order = grevlex_desc_order(len(lm))
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
    return (lm, items, gid, mono_mask(lm), (order, k), plm, rel, excess)


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

    `rows` are _lead_row tuples packed under `order` (descending grevlex
    by default) with the cap's k (the number of variables without a cap).
    A term is rewritten by the first row whose leading monomial divides
    it.  The scan for that row unpacks the term and computes its mask
    once, and calls mono_divides only on the rows whose mask lies inside
    it (see the module docstring), so the mask never changes which row is
    found; exponents must be nonnegative.

    Inside the loop a monomial is its packed int (core.MonomialOrder).
    The working terms live in a dict keyed by it, their order in a heap of
    the ints themselves (ascending), with lazy deletion: a popped monomial
    whose term has since cancelled is skipped.  The first dividing row is
    memoised per monomial when it is popped, with the room left under the
    cap; a rewrite then adds each row term's packed difference to the
    popped int and compares its q-degree difference with that room.  A
    term of a monomial already known irreducible goes straight to the
    result.  With cap = (k, trunc), a term whose exponents from slot k on
    sum above trunc is dropped.  The result keys are the tuples the
    irreducible monomials were unpacked to; `usage` is unpacked at the
    end.

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
            order = grevlex_desc_order(n)
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

    pack, unpack, C = order.pack, order.unpack, order.C
    work = ({P: c for P, c in terms.items() if c} if packed
            else {pack(m): c for m, c in terms.items() if c})
    heap = list(work)
    heapq.heapify(heap)
    # every monomial known irreducible -> [its exponent tuple, coefficient]
    out: Dict[int, List] = {}
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
            mono = unpack(P)
            outside = ~mono_mask(mono)
            for row in rows:
                if not row[3] & outside and mono_divides(row[0], mono):
                    if row[4] != packing:
                        raise InternalError("reducer row packed for another order or cap")
                    hit = hits[P] = (row[6], trunc - sum(mono[qk:]), row[2], P - row[5] + C)
                    break
            else:
                out[P] = [mono, coeff]
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
                out[P2][1] -= coeff * c
            else:
                work[P2] = -coeff * c
                heappush(heap, P2)
        if usage is not None:
            slot = packed_usage.setdefault(gid, {})
            slot[pquot] = slot.get(pquot, ZERO) + coeff
    for gid, packed in packed_usage.items():
        slot = usage.setdefault(gid, {})
        for pquot, s in packed.items():
            quot = unpack(pquot)
            slot[quot] = slot.get(quot, ZERO) + s
    return {mono: c for mono, c in out.values() if c}


def divider(d: Polynomial) -> Callable[[Polynomial], Tuple[Polynomial, Polynomial]]:
    """p -> divide(p, d), with d's reducer row built once for every p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _check_operands(d.vars, d)
    lm, lc = d.leading()
    inv = 1 / lc
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


def groebner(relations: List[Polynomial], step_cap: Optional[int] = None,
             track_cofactors: bool = True) -> GroebnerData:
    """Reduced monic grevlex basis of the ideal spanned by `relations`."""
    rels = list(relations)
    if not rels:
        raise ValueError("cannot build a basis from no relations")
    vars = rels[0].vars
    _check_operands(vars, *rels)
    budget = _Budget(step_cap)

    order = grevlex_desc_order(len(vars))
    lead_rows: List[LeadRow] = []  # one reducer row per generator
    pairs: List[Tuple[int, int, int, Mono]] = []  # heap of (-pack(lcm), i, j, lcm)
    active: List[LeadRow] = []  # generators no newer leading monomial properly divides
    pool = lead_rows if track_cofactors else active  # what pairs and reductions take

    def add(g):
        """Append the monic generator g: the Gebauer-Moeller update (module docstring)."""
        k, lm = len(gens), g.leading()[0]
        sev = (row := _lead_row(lm, g.terms.items(), k))[3]
        new = sorted([(lcm_mono(r[0], lm), r[3] | sev, r[2]) for r in pool],
                     key=lambda e: sum(e[0]))
        gens.append(g)
        lead_rows.append(row)
        # by degree, so each lcm is tested only against earlier survivors of M
        kept_m: List[Tuple[Mono, int]] = []
        first: Dict[Mono, Optional[int]] = {}  # lcm -> oldest pair, None if one is coprime
        for lcm, mask, t in new:
            if not any(not m2 & ~mask and l2 != lcm and mono_divides(l2, lcm)
                       for l2, m2 in kept_m):
                kept_m.append((lcm, mask))
                first[lcm] = None if not lead_rows[t][3] & sev else first.get(lcm, t)
        kept = [p for p in pairs if sev & ~(lead_rows[p[1]][3] | lead_rows[p[2]][3])
                or not mono_divides(lm, p[3]) or lcm_mono(lead_rows[p[1]][0], lm) == p[3]
                or lcm_mono(lead_rows[p[2]][0], lm) == p[3]]
        if len(kept) < len(pairs):  # criterion B dropped a pair; keys are unique
            pairs[:] = kept
            heapq.heapify(pairs)
        for lcm, t in first.items():
            if t is not None:
                heapq.heappush(pairs, (-order.pack(lcm), t, k, lcm))
        active[:] = [r for r in active if sev & ~r[3] or r[0] == lm or not mono_divides(lm, r[0])]
        active.append(row)

    gens: List[Polynomial] = []
    rows: List[List[Polynomial]] = []
    for j, r in enumerate(rels):
        if not r.is_zero():
            scale = Fraction(1) / r.leading()[1]
            rows.append([Polynomial.const(vars, scale if t == j else 0) for t in range(len(rels))]
                        if track_cofactors else [])
            add(r.scale(scale))
    if not gens:
        raise ValueError("all relations are zero")

    while pairs:
        negp, i, j, lcm = heapq.heappop(pairs)
        # a term m of gens[i] times lcm / lm_i packs to pack(lcm) + pack(m) - pack(lm_i)
        spoly = {d - negp: c for d, _, c in lead_rows[i][6]}
        for d, _, c in lead_rows[j][6]:
            spoly[d - negp] = spoly.get(d - negp, 0) - c
        usage: Optional[Dict[int, Dict[Mono, Fraction]]] = {} if track_cofactors else None
        nf = Polynomial(vars, _reduce(spoly, pool, budget, usage, order, degree=sum(lcm)))
        if nf.is_zero():
            continue
        scale = Fraction(1) / nf.leading()[1]
        if track_cofactors:
            mi, mj = mono_div(lcm, lead_rows[i][0]), mono_div(lcm, lead_rows[j][0])
            cof = [a.mul_mono(mi) - b.mul_mono(mj) for a, b in zip(rows[i], rows[j])]
            rows.append([c.scale(scale) for c in _apply_usage(cof, usage, rows)])
        else:
            rows.append([])
        add(nf.scale(scale))

    # minimal set, oldest of equals kept: an input's leading monomial may be another's multiple
    keep = [a[2] for a in active if not any(not b[3] & ~a[3] and mono_divides(b[0], a[0])
                                            and (b[0] != a[0] or b[2] < a[2]) for b in active)]

    # tail reduction against the other survivors gives the reduced basis
    reduced: List[Tuple[Polynomial, List[Polynomial]]] = []
    for a in keep:
        others = [lead_rows[b] for b in keep if b != a]
        if others:
            usage = {} if track_cofactors else None
            nf = Polynomial(vars, _reduce(gens[a].terms, others, budget, usage))
            cof = _apply_usage(rows[a], usage, rows) if track_cofactors else []
        else:
            nf, cof = gens[a], rows[a]
        reduced.append((nf, cof))

    reduced.sort(key=lambda item: grevlex_key(item[0].leading()[0]))
    basis = [g for g, _ in reduced]
    cofactors = [u for _, u in reduced] if track_cofactors else []

    if track_cofactors:
        # the cofactor identity is part of the construction contract
        for g, row in zip(basis, cofactors):
            if sum((u * r for u, r in zip(row, rels)), Polynomial.zero(vars)) != g:
                raise InternalError("cofactor identity failed for basis element %s" % g.render())

    return GroebnerData(vars=vars, basis=basis, cofactors=cofactors,
                        relations=rels, steps=budget.steps)


def normal_form(p: Polynomial, gdata: GroebnerData,
                step_cap: Optional[int] = None) -> Polynomial:
    """Remainder of p modulo the reduced basis; zero iff p is in the ideal."""
    _check_operands(gdata.vars, p)
    return Polynomial(p.vars, _reduce(p.terms, gdata.lead_rows, _Budget(step_cap)))


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
    monos.sort(key=grevlex_key)
    return monos
