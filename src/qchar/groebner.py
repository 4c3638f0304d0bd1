"""Buchberger's algorithm over the rationals with exact cofactor tracking.

Every basis element g can carry a cofactor row u with
    g == sum_j u[j] * relations[j],
and that identity is checked exactly when the basis is built; a
failure raises InternalError.  The monomial order is graded reverse
lexicographic for the declared variable order throughout; bases are
reduced and monic.  Pair selection uses the normal strategy (smallest
lcm first) with the coprimality and chain criteria.

_reduce is the one normal-form loop of the package.  It serves the
S-polynomial and tail reductions of Buchberger, divide and normal_form
under descending grevlex, and the rewriting of the quotient rings
(quotient.PresentedAlgebra._reduce_terms), which passes its rule rows
in its own order, its own heap key and a q-degree cap.

Divisibility tests go through masks first.  A monomial's mask is an int
holding a thermometer code of seven bits per variable: bit 7*i + t is
set when e_i > t.  If a divides b, every bit of mask(a) is in mask(b),
so a divisor scan skips a candidate when mask(a) & ~mask(b) is nonzero
and calls mono_divides only on the candidates that pass; an exponent
above 7 only makes the mask coarser.  Reducer rows carry the mask of
their leading monomial, and Buchberger keeps one per leading monomial.
mask(lcm(a, b)) is mask(a) | mask(b), which prefilters the chain
criterion's scan, and a and b are coprime exactly when their masks share
no bit.  The masks assume nonnegative exponents: groebner, divide and
normal_form work in the polynomial ring and raise ValueError on a
negative exponent (a Laurent element must have its denominators
cleared first, as mirror.MembershipContext does) and on an operand
over another variable set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Dict, Iterable, List, Optional, Tuple

from .core import (
    InternalError,
    Mono,
    Polynomial,
    VariableSet,
    grevlex_desc_key,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_mul,
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


@dataclass
class GroebnerData:
    """Reduced monic basis plus cofactors over the original relations.

    `cofactors` is empty when the basis was built without tracking.
    """

    vars: VariableSet
    basis: List[Polynomial]
    cofactors: List[List[Polynomial]]  # basis[i] == sum_j cofactors[i][j]*relations[j]
    relations: List[Polynomial]
    steps: int = 0

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


# (leading monomial, term items, reducer id, mask of the leading monomial)
# of one monic reducer
LeadRow = Tuple[Mono, List[Tuple[Mono, Fraction]], int, int]


def _lead_row(lm: Mono, items: Iterable[Tuple[Mono, Fraction]], gid: int) -> LeadRow:
    return (lm, list(items), gid, mono_mask(lm))


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
            key=grevlex_desc_key,
            cap: Optional[Tuple[int, int]] = None) -> Dict[Mono, Fraction]:
    """Full normal form of the term map `terms` against monic reducer rows.

    `rows` are _lead_row tuples (leading monomial, term items, reducer
    id, mask); a term is rewritten by the first row whose leading
    monomial divides it.  The scan for that row computes the term's
    mask once and calls mono_divides only on the rows whose mask lies
    inside it (see the module docstring), so the mask never changes
    which row is found; exponents must be nonnegative.  The
    working terms live in a dict, their order in a heap keyed by `key`
    (ascending), with lazy deletion: a popped monomial whose term has
    since cancelled is skipped.  The first dividing row is memoised per
    monomial when it is popped, and a term of a monomial already known
    irreducible goes straight to the result.  With cap = (k, trunc), a
    term whose exponents from slot k on sum above trunc is dropped.  When
    `usage` is given it accumulates, per reducer id, the factor s with
        terms == result + sum_id s_id * reducer_id.
    The loop only adds, subtracts and multiplies coefficients, so ints
    and Fractions both work: the quotient rings rewrite int numerators.
    """
    zero = Fraction(0)
    work = {m: c for m, c in terms.items() if c}
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    out: Dict[Mono, Fraction] = {}  # holds every monomial known irreducible
    hits: Dict[Mono, LeadRow] = {}
    qk, trunc = cap if cap is not None else (0, None)
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        hit = hits.get(mono)
        if hit is None:
            outside = ~mono_mask(mono)
            for row in rows:
                if not row[3] & outside and mono_divides(row[0], mono):
                    hit = hits[mono] = row
                    break
            else:
                out[mono] = coeff
                continue
        if budget is not None:
            budget.spend()
        lm, gterms, gid, _ = hit
        quot = mono_div(mono, lm)
        for m, c in gterms:
            if m == lm:
                continue
            m2 = mono_mul(m, quot)
            if trunc is not None and sum(m2[qk:]) > trunc:
                continue
            old = work.get(m2)
            if old is not None:
                v = old - coeff * c
                if v:
                    work[m2] = v
                else:
                    del work[m2]
            elif m2 in out:
                out[m2] -= coeff * c
            else:
                work[m2] = -coeff * c
                heapq.heappush(heap, (key(m2), m2))
        if usage is not None:
            slot = usage.setdefault(gid, {})
            slot[quot] = slot.get(quot, zero) + coeff
    return {m: c for m, c in out.items() if c}


def divide(p: Polynomial, d: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """(quotient, remainder) with p == quotient * d + remainder.

    The remainder is the full normal form of p against d alone, so it is
    zero exactly when d divides p.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _check_operands(d.vars, p, d)
    lm, lc = d.leading()
    inv = 1 / lc
    usage: Dict[int, Dict[Mono, Fraction]] = {}
    rem = _reduce(p.terms, [_lead_row(lm, d.scale(inv).terms.items(), 0)], usage=usage)
    return Polynomial(p.vars, usage.get(0, {})).scale(inv), Polynomial(p.vars, rem)


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

    def unit_row(j, scale):
        row = [Polynomial.zero(vars) for _ in rels]
        row[j] = Polynomial.const(vars, scale)
        return row

    gens: List[Polynomial] = []
    rows: List[List[Polynomial]] = []
    for j, r in enumerate(rels):
        if r.is_zero():
            continue
        lc = r.leading()[1]
        gens.append(r.scale(Fraction(1) / lc))
        rows.append(unit_row(j, Fraction(1) / lc) if track_cofactors else [])
    if not gens:
        raise ValueError("all relations are zero")

    lms = [g.leading()[0] for g in gens]
    # one reducer row per generator, extended as generators are added;
    # sevs[i] is the mask of lms[i]
    lead_rows = [_lead_row(lm, g.terms.items(), i) for i, (lm, g) in enumerate(zip(lms, gens))]
    sevs = [row[3] for row in lead_rows]
    pairs: List[Tuple] = []
    pending = set()

    def push_pair(i, j):
        key = (grevlex_key(lcm_mono(lms[i], lms[j])), i, j)
        heapq.heappush(pairs, key)
        pending.add((i, j))

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            push_pair(i, j)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if not sevs[i] & sevs[j]:
            continue  # coprime leading monomials reduce to zero
        lm_i, lm_j = lms[i], lms[j]
        lcm = lcm_mono(lm_i, lm_j)
        # chain criterion: a third divisor whose pairs are both settled;
        # a divisor of lcm has its mask inside sevs[i] | sevs[j]
        outside = ~(sevs[i] | sevs[j])
        settled = False
        for k, sev in enumerate(sevs):
            if sev & outside or k == i or k == j:
                continue
            if (mono_divides(lms[k], lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                settled = True
                break
        if settled:
            continue
        mi, mj = mono_div(lcm, lm_i), mono_div(lcm, lm_j)
        spoly = gens[i].mul_mono(mi) - gens[j].mul_mono(mj)
        usage: Optional[Dict[int, Dict[Mono, Fraction]]] = {} if track_cofactors else None
        nf = Polynomial(vars, _reduce(spoly.terms, lead_rows, budget, usage))
        if nf.is_zero():
            continue
        lc = nf.leading()[1]
        scale = Fraction(1) / lc
        if track_cofactors:
            cof = [a.mul_mono(mi) - b.mul_mono(mj) for a, b in zip(rows[i], rows[j])]
            cof = _apply_usage(cof, usage, rows)
            rows.append([c.scale(scale) for c in cof])
        else:
            rows.append([])
        k = len(gens)
        gens.append(nf.scale(scale))
        lms.append(gens[k].leading()[0])
        lead_rows.append(_lead_row(lms[k], gens[k].terms.items(), k))
        sevs.append(lead_rows[k][3])
        for t in range(k):
            push_pair(t, k)

    # minimal set: drop any leading monomial divisible by another; for
    # equal leading monomials (duplicate inputs) keep the first
    keep = []
    for a in range(len(gens)):
        if any(b != a and not sevs[b] & ~sevs[a] and mono_divides(lms[b], lms[a])
               and (lms[b] != lms[a] or b < a) for b in range(len(gens))):
            continue
        keep.append(a)

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
            acc = Polynomial.zero(vars)
            for u, r in zip(row, rels):
                acc = acc + u * r
            if acc != g:
                raise InternalError(
                    "cofactor identity failed for basis element %s" % g.render())

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
