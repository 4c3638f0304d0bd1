"""The integer product kernels and rewriting against frozen Fraction copies.

AlgebraElement.__mul__, HbarPoly.__mul__ and PresentedAlgebra._reduce_terms
run on int numerators over one common denominator.  The copies below are
the Fraction versions they replaced, kept verbatim apart from reading the
ring's rule rows as Fractions: every factor, table entry and rule row is
a Fraction, and nothing is scaled.  Both sides must give the same term
maps, in the same order, with Fraction coefficients, on catalog rings,
on rings whose rules are not integral, and on operands whose
denominators are large and coprime.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import groebner
from qchar.catalog import ring as catalog_ring
from qchar.core import NovikovSeries, Polynomial, VariableSet, mono_mul
from qchar.groebner import _reduce
from qchar.jfun import HbarPoly
from qchar.mirror import jacobi_context
from qchar.quotient import AlgebraElement, PresentedAlgebra, Presentation

ZERO = Fraction(0)

# ------------------------------------------------------- the frozen copies


def frozen_reduce_terms(ring, terms, strategy="default"):
    rows, order = ring._default if strategy == "default" else ring._alternate
    rows = [row[:1] + ([(m, Fraction(c)) for m, c in row[1]],) + row[2:6]
            + ([(d, dq, Fraction(c)) for d, dq, c in row[6]],) + row[7:] for row in rows]
    return _reduce(terms, rows, order=order, cap=(len(ring.gens), ring.trunc))


def frozen_entry(ring, ma, mb):
    k = len(ring.gens)
    nf = frozen_reduce_terms(ring, {mono_mul(ma, mb) + ring.q_vars.zero_mono(): Fraction(1)})
    return sorted(((sum(m[k:]), m[k:], m[:k], c) for m, c in nf.items()),
                  key=lambda t: t[0])


def frozen_by_classical(series, k):
    groups = {}
    for m, c in series.terms.items():
        qm = m[k:]
        groups.setdefault(m[:k], []).append((qm, sum(qm), c))
    return groups


def frozen_element_mul(a, b):
    ring = a.ring
    trunc, k = ring.trunc, len(ring.gens)
    terms = {}
    right = frozen_by_classical(b.nf, k)
    for ma, left_q in frozen_by_classical(a.nf, k).items():
        for mb, right_q in right.items():
            coeff = {}
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
            entry = frozen_entry(ring, ma, mb)
            for qm, (d, c) in coeff.items():
                if not c:
                    continue
                room = trunc - d
                for de, qe, me, ce in entry:
                    if de > room:
                        break
                    key = me + mono_mul(qm, qe)
                    terms[key] = terms.get(key, ZERO) + c * ce
    return NovikovSeries(ring.gens, ring.q_vars, trunc, terms).terms


def frozen_hbar_mul(p, r):
    ring_, k = p.ring, len(p.ring.gens)
    terms = {}
    right = frozen_by_classical(r, k)
    for ma, left_h in frozen_by_classical(p, k).items():
        for mb, right_h in right.items():
            coeff = {}
            for _, ha, ca in left_h:
                for _, hb, cb in right_h:
                    coeff[ha + hb] = coeff.get(ha + hb, ZERO) + ca * cb
            entry = frozen_entry(ring_, ma, mb)
            for h, c in coeff.items():
                for _, _, me, ce in entry:
                    key = me + (h,)
                    terms[key] = terms.get(key, ZERO) + c * ce
    return HbarPoly(ring_, terms).terms


# ------------------------------------------------------------------ rings

XY = VariableSet(["x", "y"])


def rational_ring(trunc, with_q=True):
    """2x^2 - 1 - q*y and 3y^2 - x + q/2: rules and entries not integral.

    Without q it is the q-free ring 2x^2 - 1, 3y^2 - x, for HbarPoly.
    """
    qv = VariableSet(["q"] if with_q else [])
    x = NovikovSeries.gen(XY, qv, trunc, "x")
    y = NovikovSeries.gen(XY, qv, trunc, "y")
    q = NovikovSeries.q_gen(XY, qv, trunc, "q") if with_q else 0
    rels = [("r1", 2 * x ** 2 - 1 - q * y), ("r2", 3 * y ** 2 - x + Fraction(1, 2) * q)]
    return PresentedAlgebra(Presentation("test-rational", XY, qv, rels), trunc)


SERIES_RINGS = {
    "qh_fl(4)": lambda: catalog_ring("qh_fl", 4, trunc=3),
    "qk_milnor(4,3)": lambda: catalog_ring("qk_milnor", 4, 3, trunc=3),
    "qk_pn(2)": lambda: catalog_ring("qk_pn", 2, trunc=3),
    "k_milnor(3,3)": lambda: catalog_ring("k_milnor", 3, 3),
    "rational(2)": lambda: rational_ring(2),
    "rational(3)": lambda: rational_ring(3),
}

HBAR_RINGS = {
    "k_milnor(3,3)": lambda: catalog_ring("k_milnor", 3, 3),
    "k_pnxpm(3,3)": lambda: catalog_ring("k_pnxpm", 3, 3),
    "rational(q-free)": lambda: rational_ring(0, with_q=False),
}

# primes, so the denominators of one operand are pairwise coprime
BIG_DENOMINATORS = (1_000_003, 998_244_353, 2 ** 61 - 1, 10 ** 12 + 39, 7919)


def _coefficients(terms, rng, big):
    """The same keys with fresh coefficients: small ones, or over big primes."""
    if not big:
        return dict(terms)
    return {m: Fraction(rng.randrange(-10 ** 9, 10 ** 9) or 1, rng.choice(BIG_DENOMINATORS))
            for m in terms}


def _element(ring, rng, big):
    nf = ring.reduce(ring.random_series(rng)).nf
    return AlgebraElement(ring, NovikovSeries(ring.gens, ring.q_vars, ring.trunc,
                                              _coefficients(nf.terms, rng, big)))


def _hbar_poly(ring, rng, big):
    terms = {}
    for level in range(rng.randrange(1, 4)):
        for m, c in ring.reduce(ring.random_series(rng)).nf.terms.items():
            terms[m + (level,)] = c
    return HbarPoly(ring, _coefficients(terms, rng, big))


def _assert_same(got, expected):
    assert got == expected
    assert all(type(c) is Fraction for c in got.values())
    assert list(got) == list(expected)  # the same emission order


# ------------------------------------------------------------------ tests


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(SERIES_RINGS)), big=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_element_product_matches_frozen_fraction_product(name, big, seed):
    ring = SERIES_RINGS[name]()
    rng = random.Random(seed)
    a, b = _element(ring, rng, big), _element(ring, rng, big)
    _assert_same((a * b).nf.terms, frozen_element_mul(a, b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(HBAR_RINGS)), big=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_hbar_product_matches_frozen_fraction_product(name, big, seed):
    ring = HBAR_RINGS[name]()
    rng = random.Random(seed)
    p, r = _hbar_poly(ring, rng, big), _hbar_poly(ring, rng, big)
    _assert_same((p * r).terms, frozen_hbar_mul(p, r))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(SERIES_RINGS)), big=st.booleans(),
       strategy=st.sampled_from(["default", "alternate"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reduce_terms_matches_frozen_fraction_rewrite(name, big, strategy, seed):
    ring = SERIES_RINGS[name]()
    rng = random.Random(seed)
    terms = _coefficients(ring.random_series(rng).terms, rng, big)
    _assert_same(ring._reduce_terms(terms, strategy),
                 frozen_reduce_terms(ring, terms, strategy))


def test_rational_ring_keeps_fraction_rows_and_entries():
    # the non-integral rules run the same loop with Fraction coefficients
    ring = rational_ring(2)
    coeffs = [c for _, row, *_ in ring._rows for _, c in row]
    assert any(type(c) is Fraction for c in coeffs)
    assert all(type(c) is int for c in coeffs if Fraction(c).denominator == 1)
    x, y = ring.generator("x"), ring.generator("y")
    assert (x * x).render() == "1/2*y*q + 1/2"
    assert (y * y).render() == "1/3*x - 1/6*q"
    table = ring.structure_constants()
    assert sorted({math.lcm(*[Fraction(c).denominator for _, _, _, c, _ in entry])
                   for entry in ring._products.values()}) == [1, 2, 6, 12]
    for (i, j), coords in table.items():
        nf = ring.reduce(ring.basis_element(i).nf * ring.basis_element(j).nf).coords
        assert coords == nf


# ------------------------------------------------ the coefficient form


def _exact_form(coeffs):
    # an int when integral, a Fraction otherwise; both forms present
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in coeffs)
    assert {type(c) for c in coeffs} == {int, Fraction}


def test_rows_and_entries_hold_int_where_integral(monkeypatch):
    rows = list(jacobi_context(3).gdata.lead_rows)
    divide_rows = []

    def spy(terms, reducers, *args, **kwargs):
        divide_rows.extend(reducers)
        return reduce_(terms, reducers, *args, **kwargs)

    reduce_ = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", spy)
    x, y = (Polynomial.var(XY, name) for name in XY.names)
    groebner.divide(x ** 3 + y, 2 * x + 4 * y - 1)  # monic row x + 2y - 1/2
    monkeypatch.undo()
    assert len(divide_rows) == 1
    rings = [make() for make in {**SERIES_RINGS, **HBAR_RINGS}.values()]
    rows += divide_rows
    rows += [row for R in rings for row in R._default[0] + R._alternate[0]]
    # every LeadRow coefficient, in items and in rel
    _exact_form([c for row in rows for _, c in row[1]] + [c for row in rows for *_, c in row[6]])
    entries = []
    for R in rings:
        R.structure_constants()
        entries += [c for entry in R._products.values() for _, _, _, c, _ in entry]
    _exact_form(entries)
