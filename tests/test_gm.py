"""The Gebauer-Moeller pair update and the packed S-polynomials of groebner.

groebner keeps its pairs by the Gebauer-Moeller update and sums each
S-polynomial from the generators' packed rows.  It takes pairs and
reducers from its active generators only, with or without cofactors, so
a tracked and an untracked run must pop the same pairs, take the same
steps and return the same basis: on every catalog presentation up to
n=6, on the Jacobi ideals at n=3 and n=4 and on random ideals.  It
reduces other pairs than the frozen pre-mask Buchberger of test_masks
(frozen_groebner, with the lazy chain criterion) and counts other steps;
the reduced basis is unique, so it must come out the same, on the four
bases of mirror's ideal_equality_attempt at n=3 and n=4 (runs paused at
the memberships they decide early and completed afterwards) and on
random ideals (against sympy).  The cofactor rows, which the quotient
rings build their rules from, are one valid choice: on the two largest
catalog rings the tests build they must be frozen_groebner's, with the
untracked run's steps.  The track-free steps and bases of the Jacobi
ideal at n=3..5 are pinned.  The update computes on exponent ints;
frozen_mask_groebner keeps the tuple-and-mask update it replaced, over
the same active pool, and the live loop must pop the same pairs, (lcm,
i, j) in the same sequence, and return the same basis and rows, on the
Jacobi ideals at n=3 and n=4, on both ideal_equality_attempt ideals at
n=3 (paused and completed, as above) and on random ideals, with and
without cofactors.
Two broken internal invariants must raise InternalError, which the CLI
reports with exit 1, not as bad input.
"""
import hashlib
import heapq
import itertools
import random
from fractions import Fraction

import pytest

from qchar import groebner as groebner_module
from qchar import mirror, quotient
from qchar.catalog import ring
from qchar.core import (
    InternalError,
    MonomialOrder,
    Polynomial,
    VariableSet,
    grevlex_desc_order,
    grevlex_key,
    mono_div,
    mono_divides,
)
from qchar.groebner import GroebnerData, _Budget, _lead_row, _reduce, groebner
from test_masks import (
    PRESENTATIONS,
    _assert_same_basis,
    frozen_apply_usage,
    frozen_groebner,
    frozen_lcm_mono,
)
from test_mirror import _record_contexts


def _ideal_equality_contexts(monkeypatch, n):
    """Run ideal_equality_attempt(n) and return its checks and the two
    MembershipContexts it built, with their runs as the checks left them."""
    with monkeypatch.context() as m:
        built = _record_contexts(m)
        checks = mirror.ideal_equality_attempt(n)
    return checks, built


@pytest.mark.parametrize("n", [3, 4])
def test_ideal_equality_bases_match_frozen_groebner(n, monkeypatch):
    # each run stops once its memberships are decided; completed, it must
    # give the frozen basis and the steps of one uninterrupted loop
    checks, built = _ideal_equality_contexts(monkeypatch, n)
    assert len(built) == 2 and all(c.passed for c in checks)
    for ctx in built:
        assert ctx.run.pairs  # the checks left the run unfinished
        gdata = ctx.gdata
        _assert_same_basis(gdata, frozen_groebner(gdata.relations, track_cofactors=False))
        assert gdata.steps == groebner(gdata.relations, track_cofactors=False).steps


# sha256 of each track-free Jacobi basis, its rendered elements one per line
JACOBI_BASIS_SHA256 = {
    3: "4a3f5eea6da195ae324ba3aff56fc7a1c80aeea8bc56124fa90a840ec505d84d",
    4: "bd3e9cdb1a2687e6105959f96814d6f17064747ed248cdad30f6f713ac288ba0",
    5: "546cda3319064a38398fdeb9b00d5d684d7ba30446b377fe251834049a38e107",
}


@pytest.mark.parametrize("n, steps, size", [(3, 155, 17), (4, 1853, 48), (5, 14785, 92)])
def test_track_free_jacobi_steps_and_bases_pinned(n, steps, size):
    # criterion B re-heapifies only when it drops a pair; the heap keys
    # are unique, so the pop order, the step count and the basis must not move
    gdata = mirror.jacobi_context(n).gdata
    text = "\n".join(g.render() for g in gdata.basis)
    assert (gdata.steps, len(gdata.basis)) == (steps, size)
    assert hashlib.sha256(text.encode()).hexdigest() == JACOBI_BASIS_SHA256[n]


@pytest.mark.parametrize("family,n,m,steps", [("qk_fl", 5, None, 10), ("k_milnor", 5, 5, 10)])
def test_cofactor_rows_and_steps_match_frozen_on_larger_catalog_rings(family, n, m, steps):
    # the frozen run reduces against every generator and takes 8 steps
    gdata = ring(family, n, m, 0).gdata
    old = frozen_groebner(gdata.relations)
    _assert_same_basis(gdata, old)
    assert (gdata.steps, old.steps) == (steps, 8)
    assert gdata.steps == groebner(gdata.relations, track_cofactors=False).steps


def _random_ideal(seed):
    """2-4 generators of 2-3 terms of degree <= 3 in 3 or 4 variables."""
    rng = random.Random(seed)
    n = 3 + seed % 2
    vars = VariableSet(["x%d" % i for i in range(n)])
    pool = [m for m in itertools.product(range(4), repeat=n) if sum(m) <= 3]
    gens = [Polynomial(vars, {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
                              for m in rng.sample(pool, rng.randint(2, 3))})
            for _ in range(rng.randint(2, 4))]
    return vars, gens


@pytest.mark.parametrize("seed", range(20))
def test_random_ideals_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    vars, gens = _random_ideal(seed)
    symbols = sympy.symbols(vars.names)
    theirs = sympy.groebner(
        [sympy.Poly({m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
                    *symbols, domain="QQ") for p in gens],
        *symbols, order="grevlex", domain="QQ")
    expected = {frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in p.terms())
                for p in theirs.polys}
    tracked, untracked = groebner(gens), groebner(gens, track_cofactors=False)
    assert {frozenset(g.terms.items()) for g in tracked.basis} == expected
    assert [g.terms for g in untracked.basis] == [g.terms for g in tracked.basis]
    assert [g.terms for g in frozen_groebner(gens).basis] == [g.terms for g in tracked.basis]
    # the rows are those of the frozen update, which takes the same active pool
    _assert_same_basis(tracked, frozen_mask_groebner(gens, True)[0])


# ------------------------------------------------------- the pop order


_FROZEN_THERMO = [(1 << t) - 1 for t in range(8)]  # the low t bits set


def frozen_mono_mask(mono):
    """The update's mask before the guard bits: bit 7*i + t is set when e_i > t."""
    mask = 0
    for e in reversed(mono):
        mask = (mask << 7) | _FROZEN_THERMO[e if e < 7 else 7]
    return mask


def frozen_mask_groebner(relations, track_cofactors=True):
    """groebner as it was with the tuple-and-mask update, returning the data
    and the (lcm, i, j) of every pair popped, in order.  Each generator's mask
    sits in `masks` (the rows' slot 3 holds the exponent int now), and pairs
    and reductions take the active generators with or without cofactors;
    the rest is verbatim."""
    rels = list(relations)
    vars = rels[0].vars
    budget = _Budget(None)
    pops = []

    order = grevlex_desc_order(len(vars))
    lead_rows = []
    masks = []
    pairs = []
    active = []
    pool = active

    def add(g):
        k, lm = len(gens), g.leading()[0]
        row = _lead_row(lm, g.terms.items(), k)
        sev = frozen_mono_mask(lm)
        new = sorted([(frozen_lcm_mono(r[0], lm), masks[r[2]] | sev, r[2]) for r in pool],
                     key=lambda e: sum(e[0]))
        gens.append(g)
        lead_rows.append(row)
        masks.append(sev)
        kept_m = []
        first = {}
        for lcm, mask, t in new:
            if not any(not m2 & ~mask and l2 != lcm and mono_divides(l2, lcm)
                       for l2, m2 in kept_m):
                kept_m.append((lcm, mask))
                first[lcm] = None if not masks[t] & sev else first.get(lcm, t)
        kept = [p for p in pairs if sev & ~(masks[p[1]] | masks[p[2]])
                or not mono_divides(lm, p[3]) or frozen_lcm_mono(lead_rows[p[1]][0], lm) == p[3]
                or frozen_lcm_mono(lead_rows[p[2]][0], lm) == p[3]]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        for lcm, t in first.items():
            if t is not None:
                heapq.heappush(pairs, (-order.pack(lcm), t, k, lcm))
        active[:] = [r for r in active
                     if sev & ~masks[r[2]] or r[0] == lm or not mono_divides(lm, r[0])]
        active.append(row)

    gens = []
    rows = []
    for j, r in enumerate(rels):
        if not r.is_zero():
            scale = Fraction(1) / r.leading()[1]
            rows.append([Polynomial.const(vars, scale if t == j else 0) for t in range(len(rels))]
                        if track_cofactors else [])
            add(r.scale(scale))

    while pairs:
        negp, i, j, lcm = heapq.heappop(pairs)
        pops.append((lcm, i, j))
        spoly = {d - negp: c for d, _, c in lead_rows[i][6]}
        for d, _, c in lead_rows[j][6]:
            spoly[d - negp] = spoly.get(d - negp, 0) - c
        usage = {} if track_cofactors else None
        nf = Polynomial(vars, _reduce(spoly, pool, budget, usage, order, degree=sum(lcm)))
        if nf.is_zero():
            continue
        scale = Fraction(1) / nf.leading()[1]
        if track_cofactors:
            mi, mj = mono_div(lcm, lead_rows[i][0]), mono_div(lcm, lead_rows[j][0])
            cof = [a.mul_mono(mi) - b.mul_mono(mj) for a, b in zip(rows[i], rows[j])]
            rows.append([c.scale(scale) for c in frozen_apply_usage(cof, usage, rows)])
        else:
            rows.append([])
        add(nf.scale(scale))

    keep = [a[2] for a in active
            if not any(not masks[b[2]] & ~masks[a[2]] and mono_divides(b[0], a[0])
                       and (b[0] != a[0] or b[2] < a[2]) for b in active)]

    reduced = []
    for a in keep:
        others = [lead_rows[b] for b in keep if b != a]
        if others:
            usage = {} if track_cofactors else None
            nf = Polynomial(vars, _reduce(gens[a].terms, others, budget, usage))
            cof = frozen_apply_usage(rows[a], usage, rows) if track_cofactors else []
        else:
            nf, cof = gens[a], rows[a]
        reduced.append((nf, cof))

    reduced.sort(key=lambda item: grevlex_key(item[0].leading()[0]))
    basis = [g for g, _ in reduced]
    cofactors = [u for _, u in reduced] if track_cofactors else []
    return GroebnerData(vars=vars, basis=basis, cofactors=cofactors,
                        relations=rels, steps=budget.steps), pops


class _PopRecorder:
    """Stands in for heapq in the groebner module and records the pairs
    popped, in all and per pair heap (one heap per run)."""

    heapify, heappush = staticmethod(heapq.heapify), staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = []
        self.by_heap = {}

    def heappop(self, heap):
        item = heapq.heappop(heap)
        if type(item) is tuple:  # a pair; _reduce pops packed ints
            negp, i, j, lcm = item
            self.pops.append((lcm, i, j))
            self.by_heap.setdefault(id(heap), []).append((lcm, i, j))
        return item


def _assert_same_pops(relations, track_cofactors, monkeypatch):
    recorder = _PopRecorder()
    with monkeypatch.context() as m:
        m.setattr(groebner_module, "heapq", recorder)
        new = groebner(relations, track_cofactors=track_cofactors)
    old, pops = frozen_mask_groebner(relations, track_cofactors)
    assert recorder.pops == pops
    _assert_same_basis(new, old)
    assert new.steps == old.steps
    return len(pops)


@pytest.mark.parametrize("n, popped, track_cofactors", [
    pytest.param(3, 59, False, id="3-59"), pytest.param(4, 488, False, id="4-488"),
    pytest.param(3, 59, True, id="3-59-tracked")])
def test_jacobi_pops_match_the_frozen_mask_update(n, popped, track_cofactors, monkeypatch):
    rels = mirror.jacobi_context(n).gdata.relations
    assert _assert_same_pops(rels, track_cofactors, monkeypatch) == popped


def test_ideal_equality_pops_match_the_frozen_mask_update(monkeypatch):
    # both runs pause at the memberships they decide and are completed after
    # the checks; each must still pop the frozen update's pairs in sequence
    recorder = _PopRecorder()
    with monkeypatch.context() as m:
        m.setattr(groebner_module, "heapq", recorder)
        checks, built = _ideal_equality_contexts(m, 3)
        paused = [len(recorder.by_heap[id(ctx.run.pairs)]) for ctx in built]
        for ctx in built:
            ctx.gdata
    assert len(built) == 2 and all(c.passed for c in checks)
    for ctx, early in zip(built, paused):
        old, pops = frozen_mask_groebner(ctx.run.relations, False)
        assert 0 < early < len(pops)
        assert recorder.by_heap[id(ctx.run.pairs)] == pops
        _assert_same_basis(ctx.gdata, old)
        assert ctx.gdata.steps == old.steps


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("track_cofactors", [True, False])
def test_random_ideal_pops_match_the_frozen_mask_update(seed, track_cofactors, monkeypatch):
    _, gens = _random_ideal(seed)
    _assert_same_pops(gens, track_cofactors, monkeypatch)


# ------------------------------------------------------- one pair pool


def _pops_steps_basis(relations, track_cofactors, monkeypatch):
    recorder = _PopRecorder()
    with monkeypatch.context() as m:
        m.setattr(groebner_module, "heapq", recorder)
        gdata = groebner(relations, track_cofactors=track_cofactors)
    return recorder.pops, gdata.steps, [g.terms for g in gdata.basis]


def _assert_one_pool(relations, monkeypatch):
    # tracking cofactors keeps the rows and changes nothing else
    tracked = _pops_steps_basis(relations, True, monkeypatch)
    assert tracked == _pops_steps_basis(relations, False, monkeypatch)
    return tracked


@pytest.mark.parametrize("family,n,m", PRESENTATIONS)
def test_tracked_run_takes_the_untracked_pairs_on_the_catalog(family, n, m, monkeypatch):
    _assert_one_pool(ring(family, n, m, 0).gdata.relations, monkeypatch)


@pytest.mark.parametrize("n, popped, steps", [(3, 59, 155), (4, 488, 1853)])
def test_tracked_run_takes_the_untracked_pairs_on_jacobi_ideals(n, popped, steps, monkeypatch):
    pops, taken, _ = _assert_one_pool(mirror.jacobi_context(n).gdata.relations, monkeypatch)
    assert (len(pops), taken) == (popped, steps)


@pytest.mark.parametrize("seed", range(20))
def test_tracked_run_takes_the_untracked_pairs_on_random_ideals(seed, monkeypatch):
    _assert_one_pool(_random_ideal(seed)[1], monkeypatch)


# ------------------------------------------------------- internal invariants


def test_reduce_raises_internal_error_on_a_row_packed_for_another_order():
    # a row packed under ascending grevlex, handed to a descending-grevlex reduction
    row = _lead_row((1, 0), [((1, 0), 1), ((0, 1), -1)], 0, order=MonomialOrder.grevlex((2, False)))
    with pytest.raises(InternalError, match="another order or cap"):
        _reduce({(2, 0): Fraction(1)}, [row])


def test_det_bareiss_raises_internal_error_on_a_remainder(monkeypatch):
    vars = VariableSet(["q"])
    q, one = Polynomial.var(vars, "q"), Polynomial.const(vars, 1)
    entries = [[q, one], [one, q]]
    assert quotient.det_bareiss(entries) == q * q - one

    # the integer elimination at each point leaves a remainder
    monkeypatch.setattr(quotient, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InternalError, match="inexact Bareiss division"):
        quotient.det_bareiss(entries)
