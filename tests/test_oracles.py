"""Independent numerical routes: adaptive quadrature for both integral
transforms, boundary-sequence inversion, the Laplace-side identity, and
the brute-force series product.

Every oracle must bracket the matching series computation inside its
reported uncertainty; that bracketing is itself under test here.
"""

import cmath
import collections
import math

import numpy as np
import pytest

from helpers import HALF, cauchy_moments
from powertail import oracles
from powertail.errors import OutsideValidityRegionError
from powertail.oracles import (IntegrableDensity, brute_series_product,
                               laplace_link_check, quadrature_fourier,
                               quadrature_stieltjes, rotated_pareto_transform,
                               stieltjes_inversion)
from powertail.series import GenSeries, Normalization, Variable, evaluate, product
from powertail.stable import monotone_stable
from powertail.transforms import (FourierEvaluator, moment_series,
                                  stieltjes_from_moments)


def cauchy_density():
    return IntegrableDensity(fn=lambda x: 1.0 / (math.pi * (1.0 + x * x)),
                             envelope_scale=1.0 / math.pi,
                             envelope_exponent=1.0, envelope_start=1.0)


# ------------------------------------------------------ Fourier quadrature

def test_quadrature_recovers_cauchy_transform():
    den = cauchy_density()
    for z in (0.5, 1.0, 2.0):
        assert abs(complex(quadrature_fourier(den, z)) - math.exp(-z)) < 1e-8


def test_quadrature_at_zero_gives_total_mass():
    assert abs(complex(quadrature_fourier(cauchy_density(), 0.0)) - 1.0) < 1e-10


def test_quadrature_result_brackets_the_truth():
    q = quadrature_fourier(cauchy_density(), 1.0)
    assert abs(q.value - math.exp(-1.0)) <= q.error_estimate
    assert q.error_estimate < 1e-8


def test_quadrature_conjugates_under_sign_flip():
    # an asymmetric density makes the transform genuinely complex
    den = IntegrableDensity(
        fn=lambda x: 1.0 / (math.pi * (1.0 + (x - 1.0) ** 2)),
        envelope_scale=2.0 / math.pi, envelope_exponent=1.0,
        envelope_start=3.0)
    plus = complex(quadrature_fourier(den, 0.7))
    minus = complex(quadrature_fourier(den, -0.7))
    assert abs(plus - cmath.exp(-0.7 + 0.7j)) < 1e-8
    assert abs(minus - plus.conjugate()) < 1e-10


def test_series_vs_quadrature_convenience_gap():
    series_val = complex(FourierEvaluator(cauchy_moments())(0.8))
    quad_val = quadrature_fourier(cauchy_density(), 0.8).value
    assert abs(series_val - quad_val) < 1e-8


def test_rotated_tail_transform_reports_uncertainty():
    q = rotated_pareto_transform(0.5, 1.0, 0.3)
    assert q.error_estimate < 1e-10
    assert q.error_estimate >= 0.0 and q.tail_bound >= 0.0


# ---------------------------------------------------- Stieltjes quadrature

def test_stieltjes_quadrature_cauchy_resolvent():
    q = quadrature_stieltjes(cauchy_density(), -3j)
    assert abs(complex(q) - 0.25j) <= 1e-9 + q.error_estimate


def test_stieltjes_quadrature_compact_support_matches_series():
    r2 = math.sqrt(2.0)
    den = IntegrableDensity(
        fn=lambda x: 1.0 / (math.pi * math.sqrt(max(2.0 - x * x, 1e-300))),
        lower=-r2, upper=r2)
    G = stieltjes_from_moments(monotone_stable(2.0, 2.0, cutoff=20.0))
    z = -5j
    assert abs(complex(quadrature_stieltjes(den, z))
               - evaluate(G, z).value) < 1e-9


# ------------------------------------------------------ boundary inversion

def test_inversion_of_cauchy_resolvent():
    got = stieltjes_inversion(lambda z: 1.0 / (z - 1j), 5.0)
    assert abs(got - 1.0 / (26.0 * math.pi)) < 1e-7


def test_inversion_sees_no_mass_away_from_a_point_charge():
    # resolvent of a unit mass at the origin, probed at x = 3
    got = stieltjes_inversion(lambda z: 1.0 / z, 3.0)
    assert abs(got) < 1e-8


# --------------------------------------------------------- Laplace identity

def test_laplace_link_for_cauchy():
    link = laplace_link_check(cauchy_moments(), 3.0)
    assert abs(link.lhs - 0.25) < 1e-7
    assert abs(link.rhs - 0.25) < 1e-7
    assert link.discrepancy < 1e-10


def test_laplace_link_guards_slow_decay():
    with pytest.raises(OutsideValidityRegionError):
        laplace_link_check(cauchy_moments(), 1.5)


# --------------------------------------------------- brute series oracles

def _random_series(rng, spec, cutoff, gamma_mode):
    keys = [0.5 * i for i in range(int(2 * cutoff) + 1)]
    terms = {k: complex(rng.standard_normal(), rng.standard_normal())
             for k in keys}
    norm = Normalization.GAMMA if gamma_mode else Normalization.RAW
    return GenSeries(spec, Variable.ASCENDING, norm, terms, cutoff)


def test_brute_product_agrees_with_fast_product():
    rng = np.random.default_rng(20260817)
    for trial in range(20):
        gamma_mode = trial % 2 == 0
        f = _random_series(rng, HALF, 3.5, gamma_mode)
        g = _random_series(rng, HALF, 3.5, gamma_mode)
        fast = product(f, g)
        slow = brute_series_product(f, g)
        keys = set(fast.terms) | set(slow.terms)
        worst = max(abs(fast.terms.get(k, 0j) - slow.terms.get(k, 0j))
                    for k in keys)
        assert worst < 1e-12


# ------------------------------------------------- one evaluation per node

def _hex(value, err):
    return value.real.hex(), value.imag.hex(), err.hex()


def _counting(fn):
    calls = collections.Counter()

    def counted(x):
        calls[x] += 1
        return fn(x)

    return counted, calls


def test_quad_complex_evaluates_each_node_once():
    from scipy.integrate import quad

    def fn(x):
        return complex(math.cos(x), math.sin(2.0 * x)) / (1.0 + x * x)

    counted, calls = _counting(fn)
    value, err = oracles._quad_complex(counted, 0.0, 5.0, points=[1.0])
    assert calls and max(calls.values()) == 1
    re, re_err = quad(lambda x: fn(x).real, 0.0, 5.0, points=[1.0], **oracles._QUAD_OPTS)
    im, im_err = quad(lambda x: fn(x).imag, 0.0, 5.0, points=[1.0], **oracles._QUAD_OPTS)
    assert _hex(value, err) == _hex(complex(re, im), re_err + im_err)


@pytest.mark.parametrize("z", [0.5, 1.0, -2.0])
def test_fourier_quadrature_evaluates_each_node_once(monkeypatch, z):
    density, calls = _counting(cauchy_density().fn)
    den = IntegrableDensity(fn=density, envelope_scale=1.0 / math.pi,
                            envelope_exponent=1.0, envelope_start=1.0)
    got = quadrature_fourier(den, z)
    assert max(calls.values()) == 1
    once = sum(calls.values())
    # without the memo each quad run evaluates its nodes again
    calls.clear()
    monkeypatch.setattr(oracles, "_once_per_node", lambda fn: fn)
    want = quadrature_fourier(den, z)
    assert sum(calls.values()) > 2 * once
    assert _hex(got.value, got.error_estimate) == _hex(want.value, want.error_estimate)
