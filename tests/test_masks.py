"""Guard-bit divisibility and the map-based monomial helpers.

groebner._reduce, Buchberger's pair criteria and the quotient rings'
rule rows test divisibility, take lcms and test coprimality by int
arithmetic on the exponent fields of the packed keys (the guard bits of
core.MonomialOrder), and the monomial helpers in core run over map and
operator.  The guard-bit arithmetic must equal the frozen tuple helpers
at every exponent a packed key holds, up to 2^15 - 1.  The copies below
are the tuple versions the loops replaced, kept verbatim apart from
reading the frozen helpers: the same basis, cofactors, usage and normal
forms must come out of both, on the Jacobi ideals of mirror verify, on
every catalog presentation, on random small ideals and in the quotient
rings' capped rewriting under both strategies, where the alternate
strategy's former pop order stays a second oracle of its normal forms.
The live Buchberger takes its pairs and reducers from its active
generators only, with or without cofactors, so its steps may differ
from the frozen ones and its cofactor rows are one valid choice: on
every catalog presentation up to n=6 they equal the frozen rows, and
elsewhere each row must satisfy the cofactor identity.
"""

import heapq
import random
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar.catalog import FAMILIES, ring
from qchar.core import (
    InternalError,
    MonomialOrder,
    NovikovSeries,
    Polynomial,
    VariableSet,
    grevlex_desc_key,
    grevlex_desc_order,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_mul,
)
from qchar.groebner import (
    GroebnerData,
    _Budget,
    _lcm,
    _lead_row,
    _reduce,
    groebner,
)
from qchar.mirror import jacobi_context

# ------------------------------------------------------- the frozen copies


def frozen_mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def frozen_mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def frozen_mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def frozen_lcm_mono(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def frozen_grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def frozen_lead_row(lm, g, gid):
    return (lm, list(g.terms.items()), gid)


def frozen_alternate_key(k):
    """The alternate strategy's first heap key: the smallest classical
    monomial first, ties by highest q-degree.  A rewrite can land below
    the monomial it rewrites, so a monomial can be rewritten many times;
    the normal forms are those of frozen_measure_key."""
    return lambda m: (grevlex_key(m[:k]), grevlex_desc_key(m[k:]))


def frozen_measure_key(k):
    """The alternate strategy's heap key: the lowest q-degree first, then
    the largest classical monomial, ties by the largest q-monomial.  Every
    rewrite lands above the monomial it rewrites."""
    return lambda m: (sum(m[k:]), grevlex_desc_key(m[:k]), grevlex_desc_key(m[k:]))


def frozen_strategy_key(R, strategy):
    """The heap keys the quotient rings pass as order objects."""
    if strategy == "default":
        return NovikovSeries.zero(R.gens, R.q_vars, R.trunc)._order_key
    return frozen_measure_key(len(R.gens))


def frozen_reduce(terms, rows, budget=None, usage=None, key=grevlex_desc_key, cap=None):
    zero = Fraction(0)
    work = {m: c for m, c in terms.items() if c}
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    out = {}  # holds every monomial known irreducible
    hits = {}
    qk, trunc = cap if cap is not None else (0, None)
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        hit = hits.get(mono)
        if hit is None:
            for row in rows:
                if frozen_mono_divides(row[0], mono):
                    hit = hits[mono] = row
                    break
            else:
                out[mono] = coeff
                continue
        if budget is not None:
            budget.spend()
        lm, gterms, gid = hit
        quot = frozen_mono_div(mono, lm)
        for m, c in gterms:
            if m == lm:
                continue
            m2 = frozen_mono_mul(m, quot)
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


def frozen_apply_usage(row, usage, rows):
    out = list(row)
    for gid, terms in usage.items():
        s = Polynomial(out[0].vars, {m: c for m, c in terms.items() if c})
        if s.is_zero():
            continue
        out = [a - s * b for a, b in zip(out, rows[gid])]
    return out


def frozen_groebner(relations, step_cap=None, track_cofactors=True):
    rels = list(relations)
    vars = rels[0].vars
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

    lms = [g.leading()[0] for g in gens]
    lead_rows = [frozen_lead_row(lm, g, i) for i, (lm, g) in enumerate(zip(lms, gens))]
    pairs = []
    pending = set()

    def push_pair(i, j):
        key = (frozen_grevlex_key(frozen_lcm_mono(lms[i], lms[j])), i, j)
        heapq.heappush(pairs, key)
        pending.add((i, j))

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            push_pair(i, j)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        lm_i, lm_j = lms[i], lms[j]
        lcm = frozen_lcm_mono(lm_i, lm_j)
        if lcm == frozen_mono_mul(lm_i, lm_j):
            continue  # coprime leading monomials reduce to zero
        settled = False
        for k in range(len(gens)):
            if k == i or k == j:
                continue
            if (frozen_mono_divides(lms[k], lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                settled = True
                break
        if settled:
            continue
        mi, mj = frozen_mono_div(lcm, lm_i), frozen_mono_div(lcm, lm_j)
        spoly = gens[i].mul_mono(mi) - gens[j].mul_mono(mj)
        usage: Optional[Dict] = {} if track_cofactors else None
        nf = Polynomial(vars, frozen_reduce(spoly.terms, lead_rows, budget, usage))
        if nf.is_zero():
            continue
        lc = nf.leading()[1]
        scale = Fraction(1) / lc
        if track_cofactors:
            cof = [a.mul_mono(mi) - b.mul_mono(mj) for a, b in zip(rows[i], rows[j])]
            cof = frozen_apply_usage(cof, usage, rows)
            rows.append([c.scale(scale) for c in cof])
        else:
            rows.append([])
        k = len(gens)
        gens.append(nf.scale(scale))
        lms.append(gens[k].leading()[0])
        lead_rows.append(frozen_lead_row(lms[k], gens[k], k))
        for t in range(k):
            push_pair(t, k)

    keep = []
    for a in range(len(gens)):
        if any(b != a and frozen_mono_divides(lms[b], lms[a])
               and (lms[b] != lms[a] or b < a) for b in range(len(gens))):
            continue
        keep.append(a)

    reduced = []
    for a in keep:
        others = [lead_rows[b] for b in keep if b != a]
        if others:
            usage = {} if track_cofactors else None
            nf = Polynomial(vars, frozen_reduce(gens[a].terms, others, budget, usage))
            cof = frozen_apply_usage(rows[a], usage, rows) if track_cofactors else []
        else:
            nf, cof = gens[a], rows[a]
        reduced.append((nf, cof))

    reduced.sort(key=lambda item: frozen_grevlex_key(item[0].leading()[0]))
    basis = [g for g, _ in reduced]
    cofactors = [u for _, u in reduced] if track_cofactors else []
    if track_cofactors:
        for g, row in zip(basis, cofactors):
            acc = Polynomial.zero(vars)
            for u, r in zip(row, rels):
                acc = acc + u * r
            if acc != g:
                raise InternalError("cofactor identity failed")
    return GroebnerData(vars=vars, basis=basis, cofactors=cofactors,
                        relations=rels, steps=budget.steps)


def _assert_same_basis(new, old):
    assert [(g.vars, g.terms) for g in new.basis] == [(g.vars, g.terms) for g in old.basis]
    assert [[u.terms for u in row] for row in new.cofactors] == \
        [[u.terms for u in row] for row in old.cofactors]


# ------------------------------------------------------- the guard bits

WIDTHS = [1, 3, 8, 9]
EXPONENTS = list(range(10)) + [300]
TOP = (1 << 15) - 1  # the largest exponent a packed key holds
LARGE = EXPONENTS + [1 << 14, TOP - 1, TOP]


def exponent_int(mono):
    """mono's exponents in the trailing 16-bit fields of a packed key, without offset."""
    return sum(e << 16 * i for i, e in enumerate(reversed(mono)))


def lex_order(width):
    """Lex on `width` variables: every field of its keys is an exponent
    field, so every exponent up to TOP packs exactly at any total degree."""
    return MonomialOrder([[int(i == j) for i in range(width)] for j in range(width)])


def _pairs(width, count, rng, exponents=EXPONENTS):
    """Exponent-vector pairs: every pair at width 1, else random ones, half of them a | b."""
    if width == 1:
        return [((a,), (b,)) for a, b in product(exponents, repeat=2)]
    out = []
    for t in range(count):
        a = tuple(rng.choice(exponents) for _ in range(width))
        if t % 2:
            b = tuple(rng.choice(exponents) for _ in range(width))
        else:
            b = tuple(min(e + rng.choice([0, 0, 1, 3, 300]), max(exponents)) for e in a)
        out.append((a, b))
    return out


@pytest.mark.parametrize("width", WIDTHS)
def test_guard_bit_divisibility_is_exact(width):
    rng = random.Random(width)
    lex, grevlex = lex_order(width), grevlex_desc_order(width)
    H = lex.guard
    assert grevlex.guard == H == exponent_int((1 << 15,) * width)
    divisible = 0
    for a, b in _pairs(width, 3000, rng) + _pairs(width, 3000, rng, LARGE):
        divides = frozen_mono_divides(a, b)
        divisible += divides
        assert ((lex.pack(b) - exponent_int(a)) & H == H) == divides
        if sum(b) <= TOP:  # grevlex's degree field holds it (MonomialOrder.check)
            assert ((grevlex.pack(b) - exponent_int(a)) & H == H) == divides
        if divides and a != b:
            # a proper divisor is a smaller int: groebner's criterion M relies on it
            assert exponent_int(a) < exponent_int(b)
    assert divisible >= 50


@pytest.mark.parametrize("width", WIDTHS)
def test_guard_bit_lcm_and_coprimality_are_exact(width):
    rng = random.Random(100 + width)
    pairs = _pairs(width, 3000, rng) + _pairs(width, 3000, rng, LARGE)
    # sparse vectors, so that coprime pairs occur at every width
    for _ in range(1000):
        a = tuple(rng.choice([0, 0, 0, 0, 1, 9, 300, TOP]) for _ in range(width))
        b = tuple(rng.choice([0, 0, 0, 0, 2, 7, 300, TOP]) for _ in range(width))
        pairs.append((a, b))
    H = lex_order(width).guard
    coprime = 0
    for a, b in pairs:
        lcm = frozen_lcm_mono(a, b)
        is_coprime = lcm == frozen_mono_mul(a, b)
        coprime += is_coprime
        Ea, Eb = exponent_int(a), exponent_int(b)
        assert _lcm(Ea, Eb, H) == _lcm(Eb, Ea, H) == exponent_int(lcm)
        assert (_lcm(Ea, Eb, H) == Ea + Eb) == is_coprime
    assert coprime >= 50


def test_guard_bit_identities_at_the_largest_lcm_degree():
    # every exponent is at most TOP, so a field of E_a + E_b stays below 2^16
    H = lex_order(2).guard
    Ea, Eb = exponent_int((TOP, 0)), exponent_int((0, TOP))
    assert _lcm(Ea, Eb, H) == Ea + Eb == exponent_int((TOP, TOP))  # coprime at degree 2^16 - 2
    assert Ea + Ea == 2 * TOP << 16  # a field sum of 2^16 - 2 does not carry
    assert _lcm(Ea, Ea, H) == Ea != Ea + Ea
    assert _lcm(Ea + Eb, Ea, H) == Ea + Eb != 2 * Ea + Eb


def test_rows_carry_the_exponent_int_of_their_leading_monomial():
    R = ring("qk_milnor", 4, 3, 3)
    assert all(E == exponent_int(lm) for lm, _, _, E, *_ in R._rows + R._alternate[0])
    gdata = jacobi_context(3).gdata
    assert all(E == exponent_int(lm) for lm, _, _, E, *_ in gdata.lead_rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([0] + WIDTHS).flatmap(lambda w: st.tuples(
    *[st.lists(st.sampled_from(list(range(-5, 10)) + [300, -300]), min_size=w, max_size=w)
      .map(tuple)] * 2)))
def test_map_helpers_match_frozen_generator_versions(ab):
    # negative exponents included: mirror's Laurent arithmetic uses them
    a, b = ab
    assert mono_mul(a, b) == frozen_mono_mul(a, b)
    assert mono_div(a, b) == frozen_mono_div(a, b)
    assert mono_divides(a, b) == frozen_mono_divides(a, b)
    assert grevlex_key(a) == frozen_grevlex_key(a)
    for f in (mono_mul, mono_div):
        assert type(f(a, b)) is tuple


# ------------------------------------------------------- frozen oracles


def assert_cofactor_identity(gdata):
    """Each basis element equals the sum of its row times the relations."""
    assert len(gdata.cofactors) == len(gdata.basis)
    for g, row in zip(gdata.basis, gdata.cofactors):
        assert len(row) == len(gdata.relations)
        assert sum((u * r for u, r in zip(row, gdata.relations)), Polynomial.zero(g.vars)) == g


def test_jacobi_n3_basis_matches_frozen_unmasked_groebner():
    rels = jacobi_context(3).gdata.relations
    new, old = groebner(rels), frozen_groebner(rels)
    assert [g.terms for g in new.basis] == [g.terms for g in old.basis]
    assert_cofactor_identity(new)
    assert (new.steps, old.steps) == (155, 154)


def test_jacobi_n4_basis_matches_frozen_unmasked_groebner():
    gdata = jacobi_context(4).gdata
    old = frozen_groebner(gdata.relations, track_cofactors=False)
    _assert_same_basis(gdata, old)
    assert (gdata.steps, old.steps) == (1853, 1714)


CATALOG = [(family, n, m) for family, sizes in [
    ("qh_pn", [(1, None), (3, None)]), ("qk_pn", [(3, None)]),
    ("qh_fl", [(3, None), (4, None)]), ("qk_fl", [(3, None), (4, None)]),
    ("qh_milnor", [(3, 3), (4, 3)]), ("qk_milnor", [(3, 3), (4, 3)]),
    ("k_milnor", [(3, 3), (4, 3)]), ("k_pnxpm", [(1, 1), (2, 3)])]
    for n, m in sizes]

# every catalog presentation up to n = 6, and m = 6 for k_pnxpm, whose m may exceed n
PRESENTATIONS = ([(f, n, None) for f in ("qh_pn", "qk_pn") for n in range(1, 7)]
                 + [(f, n, None) for f in ("qh_fl", "qk_fl") for n in range(3, 7)]
                 + [(f, n, m) for f in ("k_milnor", "qk_milnor", "qh_milnor")
                    for n in range(3, 7) for m in range(3, n + 1)]
                 + [("k_pnxpm", n, m) for n in range(1, 7) for m in range(1, 7)])

# (frozen steps, live steps) where the live run's active pool takes more
ACTIVE_POOL_STEPS = {
    ("qk_fl", 5, None): (8, 10), ("k_milnor", 5, 5): (8, 10), ("qk_milnor", 5, 5): (8, 10),
    ("qk_fl", 6, None): (12, 14), ("k_milnor", 6, 5): (12, 14), ("k_milnor", 6, 6): (12, 14),
    ("qk_milnor", 6, 5): (12, 14), ("qk_milnor", 6, 6): (12, 14)}


def test_catalog_covers_every_family():
    assert {family for family, _, _ in CATALOG} == set(FAMILIES)
    assert set(CATALOG) < set(PRESENTATIONS) and len(PRESENTATIONS) == 86


@pytest.mark.parametrize("family,n,m", PRESENTATIONS)
def test_catalog_basis_matches_frozen_unmasked_groebner(family, n, m):
    R = ring(family, n, m, 0)
    old = frozen_groebner(R.gdata.relations)
    _assert_same_basis(R.gdata, old)
    frozen, live = ACTIVE_POOL_STEPS.get((family, n, m), (old.steps, old.steps))
    assert (old.steps, R.gdata.steps) == (frozen, live)
    assert R.gdata.steps == groebner(R.gdata.relations, track_cofactors=False).steps


XYZ = VariableSet(["x", "y", "z"])
small_coeffs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@st.composite
def small_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(3))
        terms[mono] = draw(small_coeffs)
    return Polynomial(XYZ, terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(small_polys(), min_size=1, max_size=3))
def test_random_ideals_match_frozen_unmasked_groebner(rels):
    if all(r.is_zero() for r in rels):
        return
    cap = 20_000
    try:
        old = frozen_groebner(rels, step_cap=cap)
    except Exception as e:  # a capped run must be capped on both sides
        with pytest.raises(type(e)):
            groebner(rels, step_cap=cap)
        return
    new = groebner(rels, step_cap=cap)
    assert [g.terms for g in new.basis] == [g.terms for g in old.basis]
    assert_cofactor_identity(new)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(small_polys(), min_size=1, max_size=3), small_polys(), small_polys())
def test_reduce_usage_and_steps_match_frozen_unmasked_reduce(rels, p, u):
    # the rows need not form a basis: the generators themselves, in order
    rels = [r for r in rels if not r.is_zero()]
    if not rels:
        return
    monic = [r.scale(1 / r.leading()[1]) for r in rels]
    new_rows = [_lead_row(g.leading()[0], g.terms.items(), i) for i, g in enumerate(monic)]
    old_rows = [row[:3] for row in new_rows]
    terms = (p + u * rels[0]).terms
    b_new, b_old = _Budget(None), _Budget(None)
    us_new, us_old = {}, {}
    assert _reduce(terms, new_rows, b_new, us_new) == \
        frozen_reduce(terms, old_rows, b_old, us_old)
    assert us_new == us_old
    assert b_new.steps == b_old.steps


SERIES_RINGS = [("qh_fl", 4, None, 3), ("qk_milnor", 4, 3, 3), ("qk_pn", 2, None, 2),
                ("qh_milnor", 3, 3, 2)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(which=st.sampled_from(SERIES_RINGS),
       strategy=st.sampled_from(["default", "alternate"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reduce_terms_matches_frozen_unmasked_reduce(which, strategy, seed):
    family, n, m, trunc = which
    R = ring(family, n, m, trunc)
    terms = R.random_series(random.Random(seed)).terms
    rows, order = R._default if strategy == "default" else R._alternate
    key = frozen_strategy_key(R, strategy)
    cap = (len(R.gens), R.trunc)
    b_new, b_old = _Budget(None), _Budget(None)
    us_new, us_old = {}, {}
    new = _reduce(terms, rows, b_new, us_new, order=order, cap=cap)
    old = frozen_reduce(terms, [row[:3] for row in rows], b_old, us_old, key=key, cap=cap)
    assert list(new.items()) == list(old.items())
    assert us_new == us_old
    assert b_new.steps == b_old.steps
    assert R._reduce_terms(terms, strategy) == {mono: Fraction(c) for mono, c in old.items()}
    if strategy == "alternate":  # the order it used to pop by reaches the same form
        assert frozen_reduce(terms, [row[:3] for row in rows],
                             key=frozen_alternate_key(len(R.gens)), cap=cap) == new
