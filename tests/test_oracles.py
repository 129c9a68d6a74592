"""Independent numerical routes: double-exponential quadrature for both
integral transforms, boundary-sequence inversion, the Laplace-side
identity, and the brute-force series product.

Every oracle must bracket the matching series computation inside its
reported uncertainty; that bracketing is itself under test here.
"""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from helpers import (HALF, cauchy_moments, reference_at, reference_exp_sinh,
                     reference_ooura_mori, reference_tanh_sinh)
from powertail import oracles
from powertail.errors import InvalidArgumentError, OutsideValidityRegionError
from powertail.oracles import (IntegrableDensity, brute_series_product,
                               laplace_link_check, quadrature_fourier,
                               quadrature_stieltjes, rotated_pareto_transform,
                               stieltjes_inversion)
from powertail.semigroup import density_constant
from powertail.series import GenSeries, Normalization, Variable, evaluate, product
from powertail.stable import StableParams, classical_stable, monotone_stable
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
        fn=lambda x: 1.0 / (math.pi * np.sqrt(np.maximum(2.0 - x * x, 1e-300))),
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


# ------------------------------------- double-exponential rules vs mpmath
#
# Each rule against a 30-digit or better reference, at a relative bound
# of 1e-14, and inside its own error estimate.

def _close(got, want, q=None):
    err = abs(mpmath.mpc(got) - want)
    assert err <= 1e-14 * abs(want), (got, want)
    if q is not None:
        assert err <= q.error_estimate, (got, want, q.error_estimate)


def _fourier_points():
    """(alpha, b, y) of the kind eval-sweep's ``fourier`` ops check: a
    weight inside the admissible phase window, y = 2.5 max(cA, 0.4) (1 + u)."""
    rng = random.Random(20261020)
    for alpha in (0.5, 0.6, 0.75):
        for _ in range(3):
            theta = (1.0 - alpha + alpha * (0.15 + 0.7 * rng.random())) * math.pi
            b = (0.6 + 0.4 * rng.random()) * cmath.exp(1j * theta)
            for u in (0.0, 0.5, 0.97):
                yield alpha, b, u


@pytest.mark.parametrize("alpha,b,u", list(_fourier_points()))
def test_laplace_link_is_the_exact_transform_of_the_series(alpha, b, u):
    # integral_0^inf t^g / Gamma(g + 1) e^{-yt} dt = y^(-g-1), term by term
    m = classical_stable(StableParams(alpha, b), 20.0)[0]
    fe = FourierEvaluator(m)
    c = density_constant(m.spec, 20)
    y = 2.5 * max(c * fe.growth.A, 0.4) * (1.0 + u)
    link = laplace_link_check(m, y)
    with mpmath.workdps(30):
        want = mpmath.fsum(mpmath.mpc(v) * mpmath.mpf(y) ** (-mpmath.mpf(g) - 1)
                           for g, v in fe.series.terms.items())
        _close(link.lhs, want)


_PARETO_BETAS = (0.3, 0.5, 0.8, 1.5, 2.0, 2.5, 2.7)


@pytest.mark.parametrize("beta", _PARETO_BETAS)
def test_rotated_pareto_transform_is_the_incomplete_gamma(beta):
    # R^beta integral_R^inf e^{ixz} x^(-beta-1) dx = R^beta (-iz)^beta Gamma(-beta, -izR)
    with mpmath.workdps(40):
        for R in (0.5, 1.0, 2.0):
            for z in (0.05 / R, 0.1 / R, 0.3 / R, 0.2, 1.0, 4.0):
                q = rotated_pareto_transform(beta, R, z)
                b, r, zz = mpmath.mpf(beta), mpmath.mpf(R), mpmath.mpf(z)
                _close(q.value, r ** b * (-1j * zz) ** b * mpmath.gammainc(-b, -1j * zz * r), q)


@pytest.mark.parametrize("z", [0.05, -0.05, 0.3, 1.0, 2.0, 3.05])
def test_fourier_quadrature_is_the_cauchy_transform(z):
    q = quadrature_fourier(cauchy_density(), z)
    with mpmath.workdps(30):
        _close(q.value, mpmath.exp(-abs(mpmath.mpf(z))), q)


@pytest.mark.parametrize("z", [-3j, 2.0 - 1.0j, 5.0 - 0.5j, -10.0 - 1.0j, 0.3 - 0.1j])
def test_stieltjes_quadrature_is_the_cauchy_resolvent(z):
    # below the axis the Cauchy law's resolvent is 1 / (z - i)
    q = quadrature_stieltjes(cauchy_density(), z)
    with mpmath.workdps(30):
        _close(q.value, 1 / (mpmath.mpc(z) - 1j), q)


@pytest.mark.parametrize("rule", ["exp-sinh", "tanh-sinh"])
def test_half_step_sum_reuses_the_step_nodes(rule):
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-x)

    q = oracles.exp_sinh(f) if rule == "exp-sinh" else oracles.tanh_sinh(f, 0.0, 3.0)
    nodes = np.concatenate(seen)
    assert len(seen) == 1 and len(np.unique(nodes)) == len(nodes)
    want = 1.0 if rule == "exp-sinh" else -math.expm1(-3.0)
    assert abs(q.value - want) <= q.error_estimate < 1e-12


# ------------------------------------------------ tabulated rules, array densities

_TABLE_CASES = {
    **{"fourier-%g" % z: (lambda z=z: quadrature_fourier(cauchy_density(), z))
       for z in (0.0, 0.05, 1.0, 2.7)},
    "stieltjes": lambda: quadrature_stieltjes(cauchy_density(), 0.3 - 0.7j),
    "rotated-pareto": lambda: rotated_pareto_transform(1.5, 2.0, 0.3),
    "laplace-link": lambda: laplace_link_check(cauchy_moments(), 3.0),
}


def _bits(res):
    """The hex of every float a quadrature result or a Laplace link holds."""
    vals = res if isinstance(res, oracles.LaplaceLink) else (res.value, res.error_estimate)
    return [x.hex() for v in vals for x in (complex(v).real, complex(v).imag)]


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_tabulated_rules_reproduce_the_per_call_nodes_bit_for_bit(case, monkeypatch):
    # the rules read nodes and weights built once per step, and the
    # density once on all of them; both reproduce the nodes built on every
    # call, and the density read one node at a time, to the bit
    run = _TABLE_CASES[case]
    got = run()
    monkeypatch.setattr(oracles, "exp_sinh", reference_exp_sinh)
    monkeypatch.setattr(oracles, "tanh_sinh", reference_tanh_sinh)
    monkeypatch.setattr(oracles, "ooura_mori", reference_ooura_mori)
    monkeypatch.setattr(oracles, "_at", reference_at)
    assert _bits(got) == _bits(run())


def test_rule_tables_are_read_only_and_built_once():
    tables = (oracles._de_table, oracles._ooura_mori_table)
    for table in tables:
        table.cache_clear()
    for _ in range(3):
        for z in (0.0, 1.0, -2.0):
            quadrature_fourier(cauchy_density(), z)
        quadrature_stieltjes(cauchy_density(), 0.3 - 0.7j)
    # one step for exp-sinh and tanh-sinh, two (h and h/2) for Ooura-Mori
    assert [t.cache_info().misses for t in tables] == [1, 2]
    arrays = [a for t, h in zip(tables, (oracles._H, oracles._OM_H))
              for a in t(h) if isinstance(a, np.ndarray)]
    assert len(arrays) == 7 + 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_a_density_is_read_once_per_rule_piece():
    calls = []

    def fn(x):
        calls.append(x.shape)
        return 1.0 / (math.pi * (1.0 + x * x))

    den = IntegrableDensity(fn=fn)
    quadrature_fourier(den, 1.0)  # two core pieces, two Ooura-Mori tails at h and h/2
    assert len(calls) == 6
    calls.clear()
    quadrature_fourier(den, 0.0)  # two core pieces, two exp-sinh tails
    assert len(calls) == 4
    calls.clear()
    quadrature_stieltjes(den, 0.3 - 0.7j)  # cut at 0 and 0.3, two exp-sinh tails
    assert len(calls) == 5


def test_a_density_of_another_shape_is_refused_in_one_line():
    for fn in (lambda x: np.ones(3), lambda x: x[:, None] * np.ones(2), lambda x: [1.0, 2.0]):
        with pytest.raises(InvalidArgumentError) as exc:
            quadrature_fourier(IntegrableDensity(fn=fn), 1.0)
        assert "\n" not in str(exc.value)
    # a scalar stands for every node: the uniform law on [0, 2] has mass 1
    q = quadrature_fourier(IntegrableDensity(fn=lambda x: 0.5, lower=0.0, upper=2.0), 0.0)
    assert abs(q.value - 1.0) <= 1e-14
