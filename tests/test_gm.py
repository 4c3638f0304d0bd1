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
on the two largest catalog rings the tests build.  The track-free
steps and bases of the Jacobi ideal at n=3..5 are pinned.
Two broken internal invariants must raise InternalError, which the CLI
reports with exit 1, not as bad input.
"""

import hashlib
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

    def leaves_a_remainder(d):
        return lambda p: (p, one)

    monkeypatch.setattr(quotient, "divider", leaves_a_remainder)
    with pytest.raises(InternalError, match="inexact Bareiss division"):
        quotient.det_bareiss(entries)
