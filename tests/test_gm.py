"""The Gebauer-Moeller pair update and the packed S-polynomials of groebner.

groebner keeps its pairs by the Gebauer-Moeller update and sums each
S-polynomial from the generators' packed rows.  Without cofactors it
takes pairs and reducers from its active generators only, so it reduces
other pairs than the frozen pre-mask Buchberger of test_masks
(frozen_groebner, with the lazy chain criterion) and counts other steps;
the reduced basis is unique, so it must come out the same, on the four
bases of mirror's ideal_equality_attempt at n=3 and n=4 and on random
ideals (against sympy).  With cofactors it takes every generator, and
the cofactor rows, which the quotient rings build their rules from, must
be the frozen ones: on the same random ideals, and with the frozen steps
on the two largest catalog rings the tests build.
Two broken internal invariants must raise InternalError, which the CLI
reports with exit 1, not as bad input.
"""

import itertools
import random
from fractions import Fraction

import pytest

from qchar import mirror, quotient
from qchar.catalog import ring
from qchar.core import InternalError, MonomialOrder, Polynomial, VariableSet
from qchar.groebner import _lead_row, _reduce, groebner
from test_masks import _assert_same_basis, frozen_groebner


@pytest.mark.parametrize("n", [3, 4])
def test_ideal_equality_bases_match_frozen_groebner(n, monkeypatch):
    built = []

    def recording(relations, step_cap=None, track_cofactors=True):
        built.append(groebner(relations, step_cap, track_cofactors))
        return built[-1]

    monkeypatch.setattr(mirror, "groebner", recording)
    checks = mirror.ideal_equality_attempt(n)
    assert len(built) == 2 and all(c.passed for c in checks)
    for gdata in built:
        _assert_same_basis(gdata, frozen_groebner(gdata.relations, track_cofactors=False))


@pytest.mark.parametrize("family,n,m,steps", [("qk_fl", 5, None, 8), ("k_milnor", 5, 5, 8)])
def test_cofactor_rows_and_steps_match_frozen_on_larger_catalog_rings(family, n, m, steps):
    gdata = ring(family, n, m, 0).gdata
    old = frozen_groebner(gdata.relations)
    _assert_same_basis(gdata, old)
    assert gdata.steps == old.steps == steps


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
    _assert_same_basis(tracked, frozen_groebner(gens))


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

    def leaves_a_remainder(p, d):
        return p, one

    monkeypatch.setattr(quotient, "divide", leaves_a_remainder)
    with pytest.raises(InternalError, match="inexact Bareiss division"):
        quotient.det_bareiss(entries)
