"""Power series evaluated at degree-two classes via quantum products.

A univariate Taylor series f is applied to a rational combination of the
h-generators by summing c_k times the k-th quantum power of the class.
The sum terminates because high powers of a nilpotent-mod-Novikov class
pick up more Novikov degree than the truncation order keeps; a class
that is not nilpotent mod Novikov is rejected with ValueError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

from .core import Polynomial
from .quotient import AlgebraElement, PresentedAlgebra

TAGS = ("exp_neg", "one_minus_exp_over_x", "x_over_one_minus_exp")


class UnivariateSeries:
    """Taylor coefficients at 0, computed on demand for the named tags.

    exp_neg               e^{-x}:        c_k = (-1)^k / k!
    one_minus_exp_over_x  (1-e^{-x})/x:  c_k = (-1)^k / (k+1)!
    x_over_one_minus_exp  x/(1-e^{-x}):  inverse of the previous one
    """

    def __init__(self, tag: str):
        if tag not in TAGS:
            raise ValueError("unknown series tag %r" % tag)
        self._cache: List[Fraction] = []
        self.tag = tag

    def _extend(self, upto: int) -> None:
        k = len(self._cache)
        while k <= upto:
            if self.tag == "exp_neg":
                c = Fraction((-1) ** k, math.factorial(k))
            elif self.tag == "one_minus_exp_over_x":
                c = Fraction((-1) ** k, math.factorial(k + 1))
            elif k == 0:  # x_over_one_minus_exp: invert, constant term 1/a_0
                c = Fraction(1)
            else:
                a = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(k + 1)]
                c = -sum((a[i] * self._cache[k - i] for i in range(1, k + 1)),
                         Fraction(0))
            self._cache.append(c)
            k += 1

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        self._extend(k)
        return self._cache[k]

    def coeffs(self, upto: int) -> List[Fraction]:
        return [self.coeff(k) for k in range(upto + 1)]


def series_coeffs(tag: str, upto: int) -> List[Fraction]:
    if upto < 0:
        raise ValueError("order must be nonnegative")
    return UnivariateSeries(tag).coeffs(upto)


EXP_NEG = UnivariateSeries("exp_neg")
OMEOX = UnivariateSeries("one_minus_exp_over_x")
XOME = UnivariateSeries("x_over_one_minus_exp")


def _linear_class(ring: PresentedAlgebra, alpha) -> AlgebraElement:
    """Coerce alpha and insist it is a q-free linear combination of generators.

    An element or series of another ring or truncation is rejected.
    """
    if not isinstance(alpha, (AlgebraElement, Polynomial)):  # a series is a Polynomial
        raise TypeError("expected a ring element, got %r" % (alpha,))
    s = ring.series(alpha)
    k = len(ring.gens)
    for m in s.terms:
        if any(m[k:]) or sum(m) != 1:
            raise ValueError("class is not a linear combination of generators: %s"
                             % s.render())
    return ring.reduce(s)


def eval_deg2(f: UnivariateSeries, alpha, ring: PresentedAlgebra) -> AlgebraElement:
    """Sum c_k times the k-th quantum power of the linear class alpha.

    The loop stops once the power itself reduces to zero, so alpha must
    be nilpotent mod Novikov: with dim = classical dimension, the
    classical part of alpha^dim vanishes exactly then (Cayley-Hamilton),
    so alpha^dim lies in the Novikov ideal and the power is zero by
    k = dim * (ring.trunc + 1).  Otherwise the sum never terminates and
    ValueError is raised.
    """
    a = _linear_class(ring, alpha)
    acc = ring.one().scale(f.coeff(0))
    power = ring.one()
    dim = ring.classical_dim()
    k = 0
    while True:
        k += 1
        power = power * a
        if power.is_zero():
            break
        if k == dim and not power.classical_part().is_zero():
            raise ValueError("class %s is not nilpotent modulo the Novikov "
                             "variables, so the series does not terminate"
                             % a.render())
        acc = acc + power.scale(f.coeff(k))
    return acc


def eval_deg2_static(f: UnivariateSeries, alpha, ring: PresentedAlgebra,
                     power_bound: int) -> AlgebraElement:
    """Same sum with a fixed power cutoff; cross-check for the dynamic rule."""
    a = _linear_class(ring, alpha)
    acc = ring.one().scale(f.coeff(0))
    power = ring.one()
    for k in range(1, power_bound + 1):
        power = power * a
        acc = acc + power.scale(f.coeff(k))
    return acc


def quantum_todd_pn(n: int, trunc: int) -> AlgebraElement:
    """(h/(1-e^{-h}))^{*(n+1)} in the quantum cohomology of P^n."""
    from .catalog import ring as make

    R = make("qh_pn", n, trunc=trunc)
    base = eval_deg2(XOME, R.generator("h"), R)
    return base ** (n + 1)


def quantum_todd_factor(a: int, ring: PresentedAlgebra, exponent: int) -> AlgebraElement:
    """((1-e^{-h_a})/h_a)^{*e} * ((h1+h2)/(1-e^{-(h1+h2)})), quantum products."""
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if "h1" not in ring.gens or "h2" not in ring.gens:
        raise ValueError("ring %r has no h1, h2 generators" % ring.label)
    ha = ring.generator("h%d" % a)
    hsum = ring.generator("h1") + ring.generator("h2")
    left = eval_deg2(OMEOX, ha, ring) ** exponent
    right = eval_deg2(XOME, hsum, ring)
    return left * right
