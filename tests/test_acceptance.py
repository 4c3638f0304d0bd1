"""Acceptance criteria, one test per numbered criterion.

Every residual comparison is exact (zero tolerance); each criterion also
carries the wall-time budget it was specified with.
"""

import dataclasses
import time

from qchar import analytic, chern, jfun, mirror
from qchar.catalog import ring
from qchar.core import Polynomial
from qchar.jfun import THETA_VARS, DifferenceExpression


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.budget, \
                "budget %.0fs exceeded: %.1fs" % (self.budget, elapsed)
        return False


def test_A01_pn_well_definedness():
    # (1 - e^-h)^*(n+1) equals the image of Q for n = 1..6 at order 6
    with Stopwatch(5):
        for n in range(1, 7):
            qmap = chern.build_qch("pn", n, None, 6)
            T = qmap.target
            omem = T.one() - analytic.eval_deg2(analytic.EXP_NEG,
                                                T.generator("h"), T)
            residual = omem ** (n + 1) - qmap.novikov_images["Q"]
            assert residual.is_zero(), "n=%d: %s" % (n, residual.render())


def test_A02_fl_well_definedness_and_todd_simplification():
    with Stopwatch(60):
        for n in (3, 4, 5):
            qmap = chern.build_qch("fl", n, None, 4)
            for rc in chern.verify_relations(qmap):
                assert rc.passed, "n=%d %s: %s" % (n, rc.name, rc.detail)
            for rc in chern.verify_lemma_todd_simplify(n, 4):
                assert rc.passed, "n=%d %s: %s" % (n, rc.name, rc.detail)


def test_A03_classical_limits():
    with Stopwatch(5):
        cases = ([("pn", n, None) for n in range(1, 7)]
                 + [("fl", n, None) for n in (3, 4, 5)]
                 + [("milnor", n, m) for (n, m) in
                    ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5))])
        for space, n, m in cases:
            qmap = chern.build_qch(space, n, m, 0)
            check = chern.verify_classical_limit(qmap)
            assert check.passed, "%s n=%s m=%s: %s" % (space, n, m, check.detail)


def test_A04_dimension_counts():
    with Stopwatch(10):
        for n in range(1, 7):
            assert ring("qh_pn", n, trunc=0).classical_dim() == n + 1
        for (n, m) in ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5)):
            assert ring("k_milnor", n, m, trunc=0).classical_dim() == m * (n - 1)
        for n in (3, 4, 5):
            assert ring("qh_fl", n, trunc=0).classical_dim() == n * (n - 1)
        for n in range(1, 6):
            for m in range(1, 6):
                assert ring("k_pnxpm", n, m, trunc=0).classical_dim() == n * m


def test_A05_difference_equations():
    with Stopwatch(120):
        for (n, m) in ((3, 3), (4, 3), (4, 4)):
            for item in jfun.verify_theorem56(n, m, 3):
                assert item.passed, \
                    "(%d,%d) %s: %s" % (n, m, item.name, item.detail)


def test_A06_hbar_infinity():
    with Stopwatch(10):
        for (n, m) in ((3, 3), (4, 3), (4, 4)):
            items = jfun.hbar_infinity_check(n, m, 3)
            # both operator indices, every 0 < d1+d2 <= 3
            assert len(items) == 18
            for item in items:
                assert item.passed, \
                    "(%d,%d) %s: %s" % (n, m, item.name, item.detail)


def test_A07_binomial_sweep():
    with Stopwatch(1):
        item, = jfun.binomial_identity_check(12)
        assert item.passed, item.detail


def test_A08_division_construction():
    with Stopwatch(5):
        for n in range(3, 9):
            for m in range(3, n + 1):
                _, items = jfun.lemma52_construct_and_check(n, m)
                for item in items:
                    assert item.passed, \
                        "(%d,%d) %s: %s" % (n, m, item.name, item.detail)


def test_A09_mirror_memberships():
    with Stopwatch(300):
        for n in (3, 4, 5):
            items = mirror.verify_phi(n) + mirror.verify_phi_sum_invertible(n)
            for item in items:
                assert item.passed, "n=%d %s: %s" % (n, item.name, item.detail)


def test_A10_nonzerodivisor_direct():
    with Stopwatch(60):
        for n in (3, 4, 5):
            for item in mirror.direct_nzd_check(n, 6):
                assert item.passed, "n=%d %s: %s" % (n, item.name, item.detail)


def test_A11_structure_constants_and_confluence():
    with Stopwatch(30):
        R = ring("qk_pn", 1, trunc=2)
        x = R.generator("x")
        assert x * x == R.constant(2) * x - R.one() + R.q_element("Q")
        assert (x * x).render() == "2*x - 1 + Q"
        for family, n, m in (("qh_fl", 3, None), ("qk_milnor", 4, 3)):
            check = ring(family, n, m, 3).confluence_check(50, seed=2026)
            assert check.passed, check.detail


def test_A12_negative_controls():
    with Stopwatch(30):
        # wrong Novikov image: Q -> q drops the Todd correction factors
        qmap = chern.build_qch("pn", 2, None, 1)
        bad_map = dataclasses.replace(
            qmap, novikov_images={"Q": qmap.target.q_element("q")})
        bad_rel = chern.verify_relations(bad_map)
        assert any(not rc.passed for rc in bad_rel)
        for rc in bad_rel:
            if not rc.passed:
                assert rc.detail != "0"

        # difference operator with the leading exponent off by one
        t1 = Polynomial.var(THETA_VARS, "t1")
        t2 = Polynomial.var(THETA_VARS, "t2")
        one = Polynomial.const(THETA_VARS, 1)
        perturbed = DifferenceExpression()
        perturbed.add_term(1, 0, (0, 0), t2 ** 2)  # should be t2^3
        perturbed.add_term(-1, 0, (0, 1), one)
        perturbed.add_term(1, 1, (0, 1), (1 - t1) * (1 - t2))
        bad_ops = jfun.verify_theorem56(3, 3, 1, operators=[perturbed])
        failures = [c for c in bad_ops if not c.passed]
        assert failures
        for c in failures:
            assert c.detail.startswith("residual ")
            assert c.detail != "residual 0"

        # a non-relation of the flag ring is not a Jacobi ideal member
        v = mirror.laurent_vars(3)
        x1 = Polynomial.var(v, "x1")
        q2 = Polynomial.var(v, "q2")
        member, nf = mirror.jacobi_context(3).contains(x1 ** 3 - q2 * x1)
        assert not member
        assert nf.render() != "0"
