"""Shared builders for the test suite: a few standard laws as moment
series, termwise comparison utilities, and the term-by-term series
evaluator that ``series.evaluate`` must reproduce bit for bit."""

import cmath
import math

from powertail import series
from powertail.semigroup import SemigroupSpec, density_constant
from powertail.series import (Branch, BoundShape, EvalResult, GrowthBound,
                              Normalization, Variable, gamma_factor, growth_fit)
from powertail.transforms import moment_series

NAT = SemigroupSpec.natural()
HALF = SemigroupSpec.with_alphas(0.5)


def cauchy_moments(cutoff=20.0):
    # m_n = i^n: the standard Cauchy law, tail 1/(pi x^2) on both sides
    return moment_series(NAT, {float(n): 1j ** n for n in range(int(cutoff) + 1)},
                         cutoff)


def semicircle_moments(cutoff=20.0):
    # even moments are the Catalan numbers
    terms = {}
    n = 0
    while 2 * n <= cutoff:
        terms[float(2 * n)] = float(math.comb(2 * n, n) // (n + 1))
        n += 1
    return moment_series(NAT, terms, cutoff)


def bernoulli_moments(cutoff=20.0):
    # (delta_{-1} + delta_{+1}) / 2: every even moment is 1
    terms = {float(n): (1.0 if n % 2 == 0 else 0.0)
             for n in range(int(cutoff) + 1)}
    return moment_series(NAT, terms, cutoff)


def symmetric_phase(alpha):
    """Tail weight that places a symmetric stable law inside the
    admissible phase window for every alpha in (0, 2]."""
    return cmath.exp(1j * math.pi * (1.0 - alpha / 2.0))


def worst_termwise(a, b):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys),
               default=0.0)


def worst_termwise_rel(a, b):
    keys = set(a.terms) | set(b.terms)
    out = 0.0
    for k in keys:
        x = a.terms.get(k, 0j)
        y = b.terms.get(k, 0j)
        out = max(out, abs(x - y) / max(1.0, abs(y)))
    return out


def reference_evaluate(f, z, branch=Branch.PRINCIPAL, growth=None):
    """Partial sum at z one term at a time in Python complex arithmetic,
    with the tail bound of ``series.evaluate`` (no guard warning)."""
    z = complex(z)
    sign = 1.0 if f.variable is Variable.ASCENDING else -1.0
    needs_log = any((k + f.exponent_shift) != 0 for k in f.terms)
    L = series._branch_log(z, branch) if needs_log else 0j
    total = 0j
    for k, c in sorted(f.terms.items()):
        e = k + f.exponent_shift
        term = c if e == 0 else c * cmath.exp(sign * e * L)
        if f.normalization is Normalization.GAMMA:
            term /= gamma_factor(k + 1.0)
        total += term
    if growth is None:
        growth = growth_fit(f) if f.terms else GrowthBound(0.0, BoundShape.PER_EXPONENT,
                                                           f.cutoff)
    absz = abs(z)
    c = density_constant(f.spec, max(1, int(math.ceil(f.cutoff))))
    return EvalResult(value=total, tail_bound=series._tail_bound(f, absz, growth, c)
                      if absz > 0 else math.inf)
