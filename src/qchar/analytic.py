"""Power series evaluated at degree-two classes via quantum products.

A univariate Taylor series f is applied to a rational combination of the
h-generators by summing c_k times the k-th quantum power of the class.
The sum terminates because high powers of a nilpotent-mod-Novikov class
pick up more Novikov degree than the truncation order keeps; a class
that is not nilpotent mod Novikov is rejected with ValueError.

A power f(alpha)^e is evaluated as the one series f**e at alpha, whose
coefficients come from f's by J.C.P. Miller's recurrence
(UnivariateSeries.power).  That is exact: alpha is nilpotent in the
truncated ring, so x -> alpha is a ring map from truncated power series
and (f**e)(alpha) = f(alpha)^e, with no products of dense elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List

from .core import Polynomial
from .quotient import AlgebraElement, PresentedAlgebra

TAGS = ("exp_neg", "one_minus_exp_over_x", "x_over_one_minus_exp")


class UnivariateSeries:
    """Taylor coefficients at 0, computed on demand and cached.

    exp_neg               e^{-x}:        c_k = (-1)^k / k!
    one_minus_exp_over_x  (1-e^{-x})/x:  c_k = (-1)^k / (k+1)!
    x_over_one_minus_exp  x/(1-e^{-x}):  inverse of the previous one

    power(e) is the series f**e, with its own cache.
    """

    def __init__(self, tag: str):
        if tag not in TAGS:
            raise ValueError("unknown series tag %r" % tag)
        self._cache: List[Fraction] = []
        self._powers: Dict[int, SeriesPower] = {}
        self.tag = tag

    def _next(self, k: int) -> Fraction:
        """Coefficient k, given the cached coefficients below it."""
        if self.tag == "exp_neg":
            return Fraction((-1) ** k, math.factorial(k))
        if self.tag == "one_minus_exp_over_x":
            return Fraction((-1) ** k, math.factorial(k + 1))
        if k == 0:  # x_over_one_minus_exp: invert, constant term 1/a_0
            return Fraction(1)
        a = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(k + 1)]
        return -sum((a[i] * self._cache[k - i] for i in range(1, k + 1)), Fraction(0))

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        cache = self._cache
        while len(cache) <= k:
            cache.append(self._next(len(cache)))
        return cache[k]

    def coeffs(self, upto: int) -> List[Fraction]:
        return [self.coeff(k) for k in range(upto + 1)]

    def power(self, e: int) -> "SeriesPower":
        """The series f**e, built once per exponent and extended on demand."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("power must be a nonnegative integer, got %r" % (e,))
        p = self._powers.get(e)
        if p is None:
            p = self._powers[e] = SeriesPower(self, e)
        return p


class SeriesPower(UnivariateSeries):
    """f**e by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

    With g = f**e, x*g' * f = e * g * x*f' gives
        g_0 = f_0**e,  g_k = sum_{j=1..k} ((e+1)*j - k) * f_j * g_{k-j} / (k*f_0),
    so each coefficient costs k products of cached ones, with no truncated
    multiplication of series.  The recurrence needs f_0 != 0, which every
    named tag has.
    """

    def __init__(self, base: UnivariateSeries, e: int):
        self._cache = []
        self._powers = {}
        self.tag = base.tag
        self.base = base
        self.exponent = e

    def _next(self, k: int) -> Fraction:
        f, e, g = self.base.coeff, self.exponent, self._cache
        if k == 0:
            return f(0) ** e
        s = sum(((e + 1) * j - k) * f(j) * g[k - j] for j in range(1, k + 1))
        return s / (k * f(0))


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
    return eval_deg2(XOME.power(n + 1), R.generator("h"), R)


def quantum_todd_factor(a: int, ring: PresentedAlgebra, exponent: int) -> AlgebraElement:
    """((1-e^{-h_a})/h_a)^{*e} * ((h1+h2)/(1-e^{-(h1+h2)})), quantum products."""
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if "h1" not in ring.gens or "h2" not in ring.gens:
        raise ValueError("ring %r has no h1, h2 generators" % ring.label)
    ha = ring.generator("h%d" % a)
    hsum = ring.generator("h1") + ring.generator("h2")
    left = eval_deg2(OMEOX.power(exponent), ha, ring)
    right = eval_deg2(XOME, hsum, ring)
    return left * right
