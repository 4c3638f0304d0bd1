"""Power series evaluated at degree-two classes via quantum products.

A univariate Taylor series f is applied to a rational combination of the
h-generators by summing c_k times the k-th quantum power of the class.
The sum terminates because high powers of a nilpotent-mod-Novikov class
pick up more Novikov degree than the truncation order keeps; a class
that is not nilpotent mod Novikov is rejected with ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .core import NovikovSeries, Polynomial
from .quotient import AlgebraElement, PresentedAlgebra

TAGS = ("exp_neg", "one_minus_exp_over_x", "x_over_one_minus_exp", "custom")


class UnivariateSeries:
    """Taylor coefficients at 0, computed on demand for the named tags.

    exp_neg               e^{-x}:        c_k = (-1)^k / k!
    one_minus_exp_over_x  (1-e^{-x})/x:  c_k = (-1)^k / (k+1)!
    x_over_one_minus_exp  x/(1-e^{-x}):  inverse of the previous one
    custom                an explicit finite coefficient list
    """

    def __init__(self, tag: str, coefficients: Optional[Sequence] = None):
        if tag not in TAGS:
            raise ValueError("unknown series tag %r" % tag)
        if tag == "custom":
            if coefficients is None:
                raise ValueError("custom series needs an explicit coefficient list")
            self._cache: List[Fraction] = [Fraction(c) for c in coefficients]
        else:
            if coefficients is not None:
                raise ValueError("named series do not take coefficient lists")
            self._cache = []
        self.tag = tag

    def _extend(self, upto: int) -> None:
        k = len(self._cache)
        while k <= upto:
            if self.tag == "exp_neg":
                c = Fraction((-1) ** k, _factorial(k))
            elif self.tag == "one_minus_exp_over_x":
                c = Fraction((-1) ** k, _factorial(k + 1))
            elif k == 0:  # x_over_one_minus_exp: invert, constant term 1/a_0
                c = Fraction(1)
            else:
                a = [Fraction((-1) ** i, _factorial(i + 1)) for i in range(k + 1)]
                c = -sum((a[i] * self._cache[k - i] for i in range(1, k + 1)),
                         Fraction(0))
            self._cache.append(c)
            k += 1

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        if self.tag == "custom":
            return self._cache[k] if k < len(self._cache) else Fraction(0)
        self._extend(k)
        return self._cache[k]

    def coeffs(self, upto: int) -> List[Fraction]:
        return [self.coeff(k) for k in range(upto + 1)]

    def is_finite(self) -> bool:
        return self.tag == "custom"

    def length(self) -> Optional[int]:
        return len(self._cache) if self.tag == "custom" else None


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def series_coeffs(tag: str, upto: int) -> List[Fraction]:
    if upto < 0:
        raise ValueError("order must be nonnegative")
    return UnivariateSeries(tag).coeffs(upto)


EXP_NEG = UnivariateSeries("exp_neg")
OMEOX = UnivariateSeries("one_minus_exp_over_x")
XOME = UnivariateSeries("x_over_one_minus_exp")


def _linear_class(ring: PresentedAlgebra, alpha) -> AlgebraElement:
    """Coerce alpha and insist it is a q-free linear combination of generators."""
    if isinstance(alpha, AlgebraElement):
        s = alpha.as_series()
    elif isinstance(alpha, (Polynomial, NovikovSeries)):
        s = ring.series(alpha)
    else:
        raise TypeError("expected a ring element, got %r" % (alpha,))
    qz = ring.q_vars.zero_mono()
    for (mm, qm) in s.terms:
        if qm != qz or sum(mm) != 1:
            raise ValueError("class is not a linear combination of generators: %s"
                             % s.render())
    return ring.reduce(s)


def eval_deg2(f: UnivariateSeries, alpha, ring: PresentedAlgebra,
              trunc: int) -> AlgebraElement:
    """Sum c_k times the k-th quantum power of the linear class alpha.

    The loop stops once the power itself reduces to zero; custom
    coefficient lists are finite, so for them the list length is the
    bound.  For the infinite named series alpha must be nilpotent mod
    Novikov: with dim = classical dimension, the classical part of
    alpha^dim vanishes exactly then (Cayley-Hamilton), so alpha^dim lies
    in the Novikov ideal and the power is zero by k = dim * (trunc + 1).
    Otherwise the sum never terminates and ValueError is raised.
    """
    if trunc != ring.trunc:
        raise ValueError("truncation %d does not match the ring's %d"
                         % (trunc, ring.trunc))
    a = _linear_class(ring, alpha)
    acc = ring.one().scale(f.coeff(0))
    power = ring.one()
    cap = f.length()
    dim = ring.classical_dim()
    k = 0
    while True:
        k += 1
        if cap is not None and k >= cap:
            break
        power = power * a
        if power.is_zero():
            break
        if cap is None and k == dim and not power.classical_part().is_zero():
            raise ValueError("class %s is not nilpotent modulo the Novikov "
                             "variables, so the series does not terminate"
                             % a.render())
        acc = acc + power.scale(f.coeff(k))
    return acc


def eval_deg2_static(f: UnivariateSeries, alpha, ring: PresentedAlgebra,
                     trunc: int, power_bound: int) -> AlgebraElement:
    """Same sum with a fixed power cutoff; cross-check for the dynamic rule."""
    if trunc != ring.trunc:
        raise ValueError("truncation %d does not match the ring's %d"
                         % (trunc, ring.trunc))
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
    base = eval_deg2(XOME, R.generator("h"), R, trunc)
    return base ** (n + 1)


def quantum_todd_factor(a: int, ring: PresentedAlgebra, exponent: int,
                        trunc: int) -> AlgebraElement:
    """((1-e^{-h_a})/h_a)^{*e} * ((h1+h2)/(1-e^{-(h1+h2)})), quantum products."""
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if "h1" not in ring.gens or "h2" not in ring.gens:
        raise ValueError("ring %r has no h1, h2 generators" % ring.label)
    ha = ring.generator("h%d" % a)
    hsum = ring.generator("h1") + ring.generator("h2")
    left = eval_deg2(OMEOX, ha, ring, trunc) ** exponent
    right = eval_deg2(XOME, hsum, ring, trunc)
    return left * right
