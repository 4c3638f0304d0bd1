"""Quantum quotient rings: normal forms, matrices, determinants.

Frozen values come from hand reduction: x*x = 2x - 1 + Q in the
deformed dual-class ring of the line, h*h = q for the line itself,
and the multiplication-by-h matrix [[0, q], [1, 0]].
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar.catalog import ring as catalog_ring
from qchar.core import (
    NovikovSeries,
    Polynomial,
    VariableSet,
    mono_div,
    mono_divides,
    mono_mul,
)
from qchar import quotient
from qchar.groebner import _Budget, _reduce
from qchar.quotient import (
    AlgebraElement,
    PresentedAlgebra,
    Presentation,
    det_bareiss,
    det_expansion,
)
from test_masks import CATALOG, frozen_grevlex_key

X = VariableSet(["x"])
Q = VariableSet(["Q"])
H = VariableSet(["h"])
QL = VariableSet(["q"])


def qk_line(trunc):
    x = NovikovSeries.gen(X, Q, trunc, "x")
    q = NovikovSeries.q_gen(X, Q, trunc, "Q")
    rel = (1 - x) ** 2 - q
    return PresentedAlgebra(Presentation("test-qk-line", X, Q, [("rel", rel)]), trunc)


def qh_line(trunc):
    h = NovikovSeries.gen(H, QL, trunc, "h")
    q = NovikovSeries.q_gen(H, QL, trunc, "q")
    return PresentedAlgebra(Presentation("test-qh-line", H, QL, [("rel", h ** 2 - q)]), trunc)


def plain(a):
    """A plain NovikovSeries copy of a series or element: nothing reduces it."""
    return NovikovSeries(a.main_vars, a.q_vars, a.trunc, a.terms)


def two_var_ring(trunc):
    """x^2 = Q1*y, y^3 = Q2; a small zero-dimensional test ring."""
    gens = VariableSet(["x", "y"])
    qv = VariableSet(["Q1", "Q2"])
    x = NovikovSeries.gen(gens, qv, trunc, "x")
    y = NovikovSeries.gen(gens, qv, trunc, "y")
    q1 = NovikovSeries.q_gen(gens, qv, trunc, "Q1")
    q2 = NovikovSeries.q_gen(gens, qv, trunc, "Q2")
    pres = Presentation("test-two-var", gens, qv,
                        [("r1", x ** 2 - q1 * y), ("r2", y ** 3 - q2)])
    return PresentedAlgebra(pres, trunc)


@pytest.mark.parametrize("name, args, use", [
    ("zero", (X, Q, 1), "ring.zero()"),
    ("const", (X, Q, 1, 2), "ring.constant(c)"),
    ("gen", (X, Q, 1, "x"), "ring.generator(name) or ring.q_element(name)"),
    ("var", (X, Q, 1, "x"), "ring.generator(name) or ring.q_element(name)"),
    ("q_gen", (X, Q, 1, "Q"), "ring.generator(name) or ring.q_element(name)"),
    ("from_polynomial", (Polynomial.var(X, "x"), Q, 1), "ring.reduce(p)"),
])
def test_series_constructors_on_an_element_name_the_ring_constructor(name, args, use):
    # an element needs its ring, which NovikovSeries's constructors do not take
    with pytest.raises(TypeError) as err:
        getattr(AlgebraElement, name)(*args)
    assert str(err.value) == "AlgebraElement.%s cannot build an element; use %s" % (
        "gen" if name in ("var", "q_gen") else name, use)
    assert getattr(NovikovSeries, name)(*args).trunc == 1  # the series' own still build


def test_dual_class_square_frozen():
    ring = qk_line(2)
    x = ring.generator("x")
    assert (x * x).render() == "2*x - 1 + Q"


def test_line_class_square_is_novikov_variable():
    ring = qh_line(3)
    h = ring.generator("h")
    assert (h * h).render() == "q"
    assert (h ** 4).render() == "q^2"


def test_relations_reduce_to_zero():
    for ring in (qk_line(3), qh_line(2), two_var_ring(3)):
        for rel in ring.relations:
            assert ring.reduce(rel).is_zero()


def test_truncation_zero_is_classical():
    ring = qk_line(0)
    x = ring.generator("x")
    assert (x * x).render() == "2*x - 1"


def test_basis_of_line_rings():
    assert qh_line(1).render_basis() == ["1", "h"]
    assert qk_line(1).render_basis() == ["1", "x"]
    assert qh_line(1).classical_dim() == 2


def test_mult_matrix_frozen():
    ring = qh_line(2)
    h = ring.generator("h")
    M = ring.mult_matrix(h)
    assert M[0][0].is_zero() and M[1][1].is_zero()
    assert M[1][0] == Polynomial.const(QL, 1)
    assert M[0][1] == Polynomial.var(QL, "q")


def test_reduce_is_idempotent_and_matches_lower_truncation():
    ring3 = two_var_ring(3)
    ring1 = two_var_ring(1)
    rng = random.Random(7)
    for _ in range(10):
        s = ring3.random_series(rng)
        a = ring3.reduce(s)
        assert ring3.reduce(plain(a)).coords == a.coords
        low = ring1.reduce(s.truncate(1))
        assert a.truncate(1).terms == low.terms


def test_reduce_linear_and_multiplicative():
    ring = two_var_ring(2)
    rng = random.Random(3)
    p = Polynomial.var(ring.gens, "x").scale(2) - Polynomial.var(ring.gens, "y") ** 2
    for _ in range(8):
        s, t = ring.random_series(rng), ring.random_series(rng)
        a, b = ring.reduce(s), ring.reduce(t)
        assert ring.reduce(s + t).coords == (a + b).coords
        assert ring.reduce(s * t).coords == (a * b).coords
        # the operators shared by every element type, on each operand kind
        assert ring.reduce(3 - s) == 3 - a == ring.constant(3) - a
        assert ring.reduce(Fraction(2, 3) * s) == Fraction(2, 3) * a == a.scale(Fraction(2, 3))
        assert (a - s).is_zero() and a - t == a - b
        assert p * s == s * p and ring.reduce(p * s) == p * a == a * p
        assert a ** 3 == a * a * a


def test_series_operands_of_an_element_are_reduced_first():
    # a plain series never takes an element as a series operand: the
    # element's reflected operator reduces the series, so the result is
    # an element, not a raw series sum or product
    ring = two_var_ring(2)
    rng = random.Random(5)
    unreduced = 0
    for _ in range(8):
        s, t = ring.random_series(rng), ring.random_series(rng)
        a = ring.reduce(t)
        for got, raw in ((s + a, s + t), (a + s, t + s), (s - a, s - t),
                         (s * a, s * t), (a * s, t * s)):
            assert type(got) is AlgebraElement and got.ring is ring
            assert got.terms == ring.reduce(raw).terms
        r = ring.reduce(s)
        unreduced += s.terms != r.terms
        assert s == r and r == s  # compared after reduction
        assert (s == a) == (r == a)
    assert unreduced


def test_quantum_product_associative_on_basis():
    ring = two_var_ring(2)
    n = ring.classical_dim()
    rng = random.Random(11)
    for _ in range(6):
        i, j, k = (rng.randrange(n) for _ in range(3))
        bi, bj, bk = (ring.basis_element(t) for t in (i, j, k))
        assert ((bi * bj) * bk).coords == (bi * (bj * bk)).coords


def test_confluence_of_reduction_strategies():
    for ring in (qk_line(3), two_var_ring(2)):
        check = ring.confluence_check(trials=20, seed=5)
        assert check.passed, check.detail
        assert check.detail == "20 trials, seed 5"


def test_confluence_check_needs_a_trial():
    with pytest.raises(ValueError):
        qk_line(1).confluence_check(trials=0, seed=5)


@pytest.mark.parametrize("family,n,m", CATALOG)
def test_every_alternate_rewrite_lands_above_its_monomial(family, n, m):
    # a rewrite raises the q-degree, or keeps it and lowers the classical
    # monomial: the alternate order puts both above, so a popped monomial
    # is never reached again
    for trunc in (0,) if family in ("k_milnor", "k_pnxpm") else (2, 3):
        R = catalog_ring(family, n, m, trunc)
        rows, order = R._alternate
        assert all(d > 0 for row in rows for d, _, _ in row[6])
        # with Novikov variables the default compares the classical block first
        if R.q_vars.names:
            assert order.rows != R._default[1].rows
        else:  # q-free, the orders coincide and only the rule priority differs
            assert order.rows == R._default[1].rows


def test_the_alternate_strategy_rewrites_about_as_often_as_the_default():
    # measured at most 1.4 times; popping the smallest classical monomial
    # first, against the measure, took 24 times or more
    R = catalog_ring("qk_milnor", 4, 3, trunc=3)
    cap = (len(R.gens), R.trunc)
    for seed in range(10):
        rng = random.Random(seed)
        series = [R.random_series(rng).terms for _ in range(50)]
        steps = []
        for rows, order in (R._default, R._alternate):
            budget = _Budget(None)
            for terms in series:
                _reduce(terms, rows, budget, order=order, cap=cap)
            steps.append(budget.steps)
        default, alternate = steps
        assert alternate <= 2 * default, (seed, steps)


def test_confluence_check_fails_on_a_corrupted_alternate_rule():
    R = catalog_ring("qh_fl", 3, trunc=2)
    assert R.confluence_check(trials=20, seed=5).passed
    bad = PresentedAlgebra(R.presentation, R.trunc)
    rows = bad._alternate[0]
    i = next(i for i, row in enumerate(rows) if row[6])
    (d, dq, c), *rest = rows[i][6]
    rows[i] = rows[i][:6] + ([(d, dq, c + 1)] + rest,) + rows[i][7:]
    check = bad.confluence_check(trials=20, seed=5)
    assert not check.passed
    assert "strategies disagree" in check.detail
    # the int self-check fails on the same trials, with the same detail, as
    # reducing each random series itself over Fraction
    rng, details, fractional = random.Random(5), [], 0
    for t in range(20):
        s = bad.random_series(rng)
        fractional += any(type(c) is Fraction for c in s.terms.values())
        if bad.reduce(s, strategy="default") != bad.reduce(s, strategy="alternate"):
            details.append("trial %d: strategies disagree on %s" % (t, s.render()))
    assert fractional and 0 < len(details) < 20 and check.detail == "; ".join(details)


@pytest.mark.parametrize("family,n,m,trunc,expected", [
    ("k_milnor", 3, 3, 0, ["-5/3*x*y^3 + 2*y^2", "-2*y^4 + y"]),
    ("qk_pn", 3, None, 2, ["-5/3*x*Q + 2*Q", "x"]),
    ("qk_milnor", 4, 3, 3, ["-5/3*x*y^3 + 2*y^2 - 5/3*Q1^2*Q2",
                            "x^5*y^4 + 3/2*x^2*y^3*Q1 - y^4 + 2*x^3*Q1"]),
])
def test_a_seed_pins_the_random_series(family, n, m, trunc, expected):
    # a self-check names its failing trials by seed, so the draws must not move
    R, rng = catalog_ring(family, n, m, trunc), random.Random(7)
    assert [R.random_series(rng).render() for _ in expected] == expected


def scan_reduce_terms(ring, terms, strategy="default"):
    """Frozen scan-based normal form: the reference for the heap version.

    Each step scans the whole working set: the default strategy takes
    the largest term by (grevlex classical monomial, lowest q-degree) and
    its first matching rule; the alternate one takes the smallest
    reducible term by the same key and its last matching rule.  A key is
    the classical monomial followed by the q monomial; a rule is a ring
    row (leading key, terms, id), monic at its leading key.
    """
    ng = len(ring.gens)
    work = {k: Fraction(c) for k, c in terms.items() if c != 0}
    out = {}

    def find_rule(mm, last=False):
        found = None
        for rule in ring._rows:
            if mono_divides(rule[0][:ng], mm):
                if not last:
                    return rule
                found = rule
        return found

    def emit(mm, qm, coeff):
        i = ring._basis_index[mm]
        qp = out.setdefault(i, {})
        v = qp.get(qm, Fraction(0)) + coeff
        if v:
            qp[qm] = v
        else:
            qp.pop(qm, None)

    while work:
        if strategy == "default":
            key = max(work, key=lambda k: (frozen_grevlex_key(k[:ng]),
                                           (-sum(k[ng:]), tuple(e for e in reversed(k[ng:])))))
            mm, qm = key[:ng], key[ng:]
            rule = find_rule(mm)
        else:
            reducible = [(k, find_rule(k[:ng], last=True)) for k in work]
            reducible = [(k, r) for k, r in reducible if r is not None]
            if not reducible:
                for k, c in work.items():
                    emit(k[:ng], k[ng:], c)
                break
            key, rule = min(reducible,
                            key=lambda kr: (frozen_grevlex_key(kr[0][:ng]),
                                            (-sum(kr[0][ng:]),
                                             tuple(e for e in reversed(kr[0][ng:])))))
            mm, qm = key[:ng], key[ng:]
        coeff = work.pop(key)
        if rule is None:
            emit(mm, qm, coeff)
            continue
        lm, row_terms, *_ = rule
        quot = mono_div(key, lm)

        def bump(k, delta):
            v = work.get(k, Fraction(0)) + delta
            if v:
                work[k] = v
            else:
                work.pop(k, None)

        for m, c in row_terms:
            knew = mono_mul(m, quot)
            if m == lm or sum(knew[ng:]) > ring.trunc:
                continue
            bump(knew, -coeff * c)
    return {i: qp for i, qp in out.items() if qp}


HEAP_CHECK_RINGS = [("qh_fl", 4, None), ("qk_milnor", 4, 3), ("qk_pn", 2, None)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(which=st.sampled_from(HEAP_CHECK_RINGS),
       strategy=st.sampled_from(["default", "alternate"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_heap_reduction_matches_scan_reference(which, strategy, seed):
    family, n, m = which
    ring = catalog_ring(family, n, m, trunc=3)
    s = ring.random_series(random.Random(seed))
    expected = scan_reduce_terms(ring, s.terms, strategy)
    got = ring.reduce(s, strategy).coords
    assert got == expected
    if strategy == "default":
        # same pick order, so terms are emitted in the same order
        assert [(i, list(qp)) for i, qp in got.items()] == \
            [(i, list(qp)) for i, qp in expected.items()]


@pytest.mark.parametrize("family, n, m, trunc", [
    ("qh_fl", 4, None, 3), ("qk_milnor", 4, 3, 3), ("k_milnor", 3, 3, 0)])
def test_rule_rows_are_the_quantum_relations(family, n, m, trunc):
    # row i is sum_j u_ij r_j at the ring's truncation (u the cofactor
    # row of basis element g_i), monic at lm(g_i) with no q, and its
    # classical part is g_i
    ring = catalog_ring(family, n, m, trunc=trunc)
    gdata = ring.gdata
    relations = ring.presentation.relations_at(trunc)
    assert [rid for _, _, rid, *_ in ring._rows] == list(range(len(gdata.basis)))
    for (lead, row_terms, i, *_) in ring._rows:
        g = gdata.basis[i]
        row = NovikovSeries(ring.gens, ring.q_vars, trunc, dict(row_terms))
        assert lead == g.leading()[0] + ring.q_vars.zero_mono()
        assert row.coeff(lead) == 1
        expected = NovikovSeries.zero(ring.gens, ring.q_vars, trunc)
        for u, r in zip(gdata.cofactors[i], relations):
            expected = expected + NovikovSeries.from_polynomial(u, ring.q_vars, trunc) * r
        assert row == expected
        assert row.classical_part() == g


# the q-free k_milnor ring lives at truncation 0, the others at 3
TABLE_CHECK_RINGS = [("qh_fl", 4, None, 3), ("qk_milnor", 4, 3, 3), ("qk_pn", 2, None, 3),
                     ("k_milnor", 3, 3, 0)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(which=st.sampled_from(TABLE_CHECK_RINGS),
       strategy=st.sampled_from(["default", "alternate"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_table_product_matches_reduced_series_product(which, strategy, seed):
    # the product through the table against rewriting the full series product
    family, n, m, trunc = which
    ring = catalog_ring(family, n, m, trunc=trunc)
    rng = random.Random(seed)
    a, b = (ring.reduce(ring.random_series(rng)) for _ in range(2))
    assert a * b == ring.reduce(plain(a) * plain(b), strategy=strategy)


def count_table_reductions(monkeypatch):
    """Record the input of every groebner._reduce call the quotient module
    makes from now on: a table entry's, and a reduction's."""
    calls = []
    original = quotient._reduce

    def counted(terms, rows, *args, **kwargs):
        calls.append(tuple(terms))
        return original(terms, rows, *args, **kwargs)

    monkeypatch.setattr(quotient, "_reduce", counted)
    return calls


def test_ring_construction_builds_no_table_entry(monkeypatch):
    calls = count_table_reductions(monkeypatch)
    ring = two_var_ring(3)
    assert calls == [] and ring._products == {}
    ring.generator("x")
    assert ring._products == {}


def _basis_products(ring):
    return {mono_mul(a, b) for a in ring.basis_monos for b in ring.basis_monos}


def test_each_table_entry_is_reduced_once(monkeypatch):
    ring = two_var_ring(3)
    rng = random.Random(19)
    elements = [ring.reduce(ring.random_series(rng)) for _ in range(6)]
    calls = count_table_reductions(monkeypatch)
    first = [a * b for a in elements for b in elements]
    # one reduction per distinct product m_a*m_b of standard monomials:
    # the table is keyed by the product, not by the pair
    assert len(calls) == len(set(calls)) == len(ring._products)
    qz = ring.q_vars.zero_mono()
    assert set(calls) == {(m + qz,) for m in ring._products}
    assert set(ring._products) <= _basis_products(ring)
    # once the entries exist, a product rewrites nothing
    del calls[:]
    assert [a * b for a in elements for b in elements] == first
    assert calls == []
    # the structure constants fill in only the entries still missing
    built = len(ring._products)
    ring.structure_constants()
    assert set(ring._products) == _basis_products(ring)
    assert len(calls) == len(ring._products) - built


def test_flag_table_has_one_entry_per_product_monomial():
    # qh_fl n=4: 12 standard monomials, 78 unordered pairs, 35 products
    ring = catalog_ring("qh_fl", 4, trunc=4)
    n = ring.classical_dim()
    table = ring.structure_constants()
    assert len(table) == n * (n + 1) // 2 == 78
    assert len(ring._products) == len(_basis_products(ring)) == 35


def test_same_label_different_rings_rejected():
    # a shared label must not let elements of different rings mix
    def line(exponent, trunc=2):
        x = NovikovSeries.gen(X, Q, trunc, "x")
        q = NovikovSeries.q_gen(X, Q, trunc, "Q")
        rel = x ** exponent - q
        return PresentedAlgebra(Presentation("same", X, Q, [("rel", rel)]), trunc)

    A, B = line(2), line(3)
    with pytest.raises(ValueError):
        A.generator("x") * B.generator("x") ** 2
    # an element is a series over the same variables, but reduce refuses it
    for strategy in ("default", "alternate"):
        with pytest.raises(ValueError, match="different rings"):
            A.reduce(B.generator("x"), strategy)
    # equal presentation data under another label is the same ring
    C = PresentedAlgebra(Presentation("other", X, Q, [("rel", A.relations[0])]), 2)
    assert A.generator("x") * C.generator("x") == A.q_element("Q")


def test_reduce_rejects_element_of_another_ring():
    other = catalog_ring("qk_pn", 1, trunc=2).generator("x")
    for strategy in ("default", "alternate"):
        with pytest.raises(ValueError):
            catalog_ring("qh_pn", 2, trunc=2).reduce(other, strategy)


def test_polynomial_over_other_variables_rejected():
    # it used to be read slot by slot: z reduced to "z", and h*z to h^2
    R = catalog_ring("qh_pn", 2, trunc=1)
    h = R.generator("h")
    z = Polynomial.var(VariableSet(["z"]), "z")
    ab = Polynomial.var(VariableSet(["a", "b"]), "a")
    for p in (z, ab):
        with pytest.raises(ValueError, match="wrong variable set"):
            R.reduce(p)
        with pytest.raises(ValueError, match="wrong variable set"):
            h * p
        with pytest.raises(ValueError, match="wrong variable set"):
            h == p
    # a polynomial over the ring's own generators still reduces
    assert R.reduce(Polynomial.var(H, "h") ** 3) == R.q_element("q")


def test_reduce_rejects_an_unknown_strategy():
    R = catalog_ring("qh_fl", 3, trunc=2)
    s = R.random_series(random.Random(1))
    for x in (s, R.generator("h1")):  # a series, and an element's early return
        with pytest.raises(ValueError, match="'bogus'.*'default' or 'alternate'"):
            R.reduce(x, strategy="bogus")


def test_reduce_and_basis_elements_skip_the_term_checks(monkeypatch):
    # the normal form's keys come from checked input or checked rows
    R = catalog_ring("qk_milnor", 4, 3, trunc=3)
    series = [R.random_series(random.Random(seed)) for seed in range(5)]
    expected = [R.reduce(s, strategy).terms for s in series
                for strategy in ("default", "alternate")]
    calls = []
    check = VariableSet.check_mono
    monkeypatch.setattr(VariableSet, "check_mono",
                        lambda self, mono: calls.append(mono) or check(self, mono))
    got = [R.reduce(s, strategy) for s in series for strategy in ("default", "alternate")]
    basis = [R.basis_element(i) for i in range(R.classical_dim())]
    assert calls == []
    assert [e.terms for e in got] == expected
    for e in got + basis:
        assert e._space() == (R.gens, R.q_vars, R.trunc)
        assert all(type(c) in (int, Fraction) and c for c in e.terms.values())
    assert [b.terms for b in basis] == [{m + R.q_vars.zero_mono(): 1} for m in R.basis_monos]


def test_presentation_rejects_zero_classical_part():
    x = NovikovSeries.gen(X, Q, 2, "x")
    q = NovikovSeries.q_gen(X, Q, 2, "Q")
    with pytest.raises(ValueError):
        Presentation("bad", X, Q, [("rel", q * x)])


def test_non_zero_dimensional_classical_ideal_rejected():
    gens = VariableSet(["x", "y"])
    qv = VariableSet(["Q"])
    x = NovikovSeries.gen(gens, qv, 1, "x")
    y = NovikovSeries.gen(gens, qv, 1, "y")
    with pytest.raises(ValueError):
        PresentedAlgebra(Presentation("bad", gens, qv, [("rel", x * y)]), 1)


def test_classical_dim_helper():
    ring = two_var_ring(1)
    assert ring.classical_dim() == 6


def test_structure_constants_cover_upper_triangle():
    ring = qk_line(1)
    table = ring.structure_constants()
    assert set(table) == {(0, 0), (0, 1), (1, 1)}
    # (x, x) entry repeats the frozen product
    x = ring.generator("x")
    assert table[(1, 1)] == (x * x).coords
    assert (x * x).render() == "2*x - 1 + Q"


# ------------------------------------------------------- determinants

def test_determinant_frozen_two_by_two():
    ring = qh_line(2)
    M = ring.mult_matrix(ring.generator("h"))
    assert det_bareiss(M) == -Polynomial.var(QL, "q")
    assert det_expansion(M, 2) == -Polynomial.var(QL, "q")


def test_determinant_algorithms_agree_on_random_matrices():
    qv = VariableSet(["q1", "q2"])
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(1, 5)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randrange(0, 3)):
                    qm = (rng.randrange(0, 2), rng.randrange(0, 2))
                    terms[qm] = Fraction(rng.randrange(-4, 5))
                row.append(Polynomial(qv, terms))
            rows.append(row)
        exact = det_bareiss(rows)
        trunc = 3
        truncated_entries = [[p.truncate(trunc) for p in row] for row in rows]
        assert det_expansion(truncated_entries, trunc) == exact.truncate(trunc)


def test_truncated_product():
    qv = VariableSet(["q1", "q2"])
    a = Polynomial(qv, {(1, 0): Fraction(1)})
    b = Polynomial(qv, {(1, 1): Fraction(2)})
    assert (a * b).truncate(2).is_zero()
    assert (a * b).truncate(3) == Polynomial(qv, {(2, 1): Fraction(2)})
