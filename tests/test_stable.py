"""Stable-law constructors across the four independence flavours, the
positive density series, mixtures, extreme-value densities, and the
deformed resolvent family.

Closed forms used as anchors:
  * classical alpha=1, b=i is the standard Cauchy law;
  * classical alpha=2, b=1 is the centered Gaussian with variance 2;
  * classical alpha=1/2, b=i has Fourier transform exp(e^{3i pi/4} sqrt(z))
    and half-integer moments Gamma(n/2+1) i^n / n!;
  * the free alpha=2 law is the semicircle (Catalan moments);
  * the boolean alpha=2 law is symmetric Bernoulli;
  * the monotone alpha=2 law is arcsine, F(z) = sqrt(z^2 - 2b);
  * the positive 1/2-stable density is x^{-3/2} e^{-1/(4x)} / (2 sqrt(pi)).
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from helpers import (NAT, bernoulli_moments, cauchy_moments,
                     semicircle_moments, symmetric_phase, worst_termwise,
                     worst_termwise_rel)
import powertail.stable as stable_module
from powertail.semigroup import density_constant, exponent_grid
from powertail.errors import (InvalidArgumentError,
                              OutsideValidityRegionError, ResonanceError,
                              ResourceGuardError)
from powertail.series import (Branch, GenSeries, binomial_power, evaluate,
                              growth_fit)
from powertail.stable import (LastPassageParams, StableKind, StableParams,
                              SupremumSeriesParams, boolean_stable,
                              classical_stable, classical_stable_scale_skew,
                              free_stable, last_passage_coefficient,
                              last_passage_density, monotone_stable,
                              monotone_stable_form, mu_br,
                              positive_stable_density, scale_skew_to_b,
                              stable_mixture, supremum_coefficient,
                              supremum_density)
from powertail.transforms import (FourierEvaluator, boolean_convolve,
                                  classical_convolve, free_convolve,
                                  monotone_convolve, moment_series,
                                  stieltjes_from_moments)


# ------------------------------------------------------------- classical

def test_classical_half_stable_transform_and_moments():
    m, diag = classical_stable(StableParams(alpha=0.5, b=1j), cutoff=10.0)
    z = 0.4
    want = cmath.exp(cmath.exp(0.75j * math.pi) * math.sqrt(z))
    assert abs(complex(FourierEvaluator(m)(z)) - want) < 1e-12
    for n in range(1, 7):
        g = 0.5 * n
        expect = math.gamma(g + 1.0) * (1j ** n) / math.factorial(n)
        assert abs(m.moment(g) - expect) < 1e-12
    assert diag.cutoff_stable


def test_classical_alpha_one_is_cauchy():
    m, _ = classical_stable(StableParams(alpha=1.0, b=1j), cutoff=16.0)
    assert worst_termwise(m, cauchy_moments(16.0)) < 1e-12


def test_classical_alpha_two_is_gaussian():
    m, diag = classical_stable(StableParams(alpha=2.0, b=1.0), cutoff=12.0)
    assert abs(m.moment(2.0) - 2.0) < 1e-12
    assert abs(m.moment(4.0) - 12.0) < 1e-12
    assert abs(m.moment(3.0)) < 1e-14
    # integer-exponent lattice: alpha = 2 growth never stabilizes
    assert not diag.cutoff_stable


def test_classical_law_builds_one_grid_on_cold_caches():
    """The diagnosis reads the half-cutoff growth fit off the law's own
    terms: on cold caches the law builds its one grid, and no other."""
    exponent_grid.cache_clear()
    density_constant.cache_clear()
    classical_stable(StableParams(0.4, -1), 24)
    assert exponent_grid.cache_info().misses == 1


@pytest.mark.parametrize("alpha, cutoff", [(0.4, 24.0), (0.4123, 17.0), (1.0 / 3.0, 9.0),
                                           (math.pi / 8, 16.0), (0.41234567891, 13.0),
                                           (1.5, 20.0), (0.7, 3.0)])
def test_coarse_growth_fit_is_the_fit_of_the_half_truncation(alpha, cutoff):
    m, diag = classical_stable(StableParams(alpha, symmetric_phase(alpha)), cutoff)
    assert diag.A_coarse == growth_fit(m.series.truncated(cutoff / 2.0)).A
    assert diag.A_fine == growth_fit(m.series).A


def test_classical_zero_weight_is_point_mass():
    m, diag = classical_stable(StableParams(alpha=0.7, b=0.0), cutoff=8.0)
    assert dict(m.terms) == {0.0: 1.0 + 0j}
    assert diag.cutoff_stable


def test_classical_heavy_alpha_reports_instability():
    _, diag = classical_stable(StableParams(alpha=1.5, b=symmetric_phase(1.5)),
                               cutoff=20.0)
    assert not diag.cutoff_stable
    assert diag.relative_increase > 0.05


def test_stability_index_window():
    with pytest.raises(InvalidArgumentError):
        StableParams(alpha=2.5, b=1j)
    with pytest.raises(InvalidArgumentError):
        StableParams(alpha=0.0, b=1j)


def test_tail_weight_phase_window():
    # alpha <= 1 requires arg b in [(1-alpha) pi, pi]
    with pytest.raises(InvalidArgumentError):
        StableParams(alpha=0.5, b=1.0)
    # alpha > 1 requires arg b in [0, (2-alpha) pi]
    with pytest.raises(InvalidArgumentError):
        StableParams(alpha=1.7, b=1j)
    StableParams(alpha=0.5, b=1j)  # boundary included
    StableParams(alpha=1.7, b=cmath.exp(0.3j * math.pi))


def test_kind_must_match_constructor():
    p = StableParams(alpha=0.5, b=1j, kind=StableKind.FREE)
    with pytest.raises(InvalidArgumentError):
        classical_stable(p)
    q = StableParams(alpha=0.5, b=1j)
    with pytest.raises(InvalidArgumentError):
        free_stable(q)
    with pytest.raises(InvalidArgumentError):
        boolean_stable(q)


def test_scale_skew_parameterization_matches_transform():
    alpha, c, beta_hat = 0.7, 1.3, 0.4
    b = scale_skew_to_b(alpha, c, beta_hat)
    m, _ = classical_stable(StableParams(alpha=alpha, b=b), cutoff=10.0)
    z = 0.5
    want = cmath.exp(-c * z ** alpha
                     * (1.0 - 1j * beta_hat * math.tan(math.pi * alpha / 2.0)))
    assert abs(complex(FourierEvaluator(m)(z)) - want) < 1e-12
    m2, _ = classical_stable_scale_skew(alpha, c, beta_hat, cutoff=10.0)
    assert worst_termwise(m, m2) < 1e-14


# ------------------------------------------------- the other three kinds

def test_free_alpha_two_has_catalan_moments():
    m = free_stable(StableParams(alpha=2.0, b=1.0, kind=StableKind.FREE),
                    cutoff=14.0)
    for n, catalan in ((2.0, 1.0), (4.0, 2.0), (6.0, 5.0), (8.0, 14.0)):
        assert abs(m.moment(n) - catalan) < 1e-10


def test_free_zero_weight_shifts_the_point_mass():
    m = free_stable(StableParams(alpha=0.5, b=0.0, gamma_shift=0.7,
                                 kind=StableKind.FREE), cutoff=6.0)
    assert abs(m.moment(1.0) + 0.7) < 1e-12
    assert abs(m.moment(2.0) - 0.49) < 1e-12


def test_free_heavy_tail_growth_stays_finite():
    m = free_stable(StableParams(alpha=0.5, b=cmath.exp(0.6j * math.pi),
                                 kind=StableKind.FREE), cutoff=20.0)
    assert math.isfinite(growth_fit(m.series).A)


def test_boolean_alpha_two_is_bernoulli():
    m = boolean_stable(StableParams(alpha=2.0, b=1.0, kind=StableKind.BOOLEAN),
                       cutoff=12.0)
    assert worst_termwise(m, bernoulli_moments(12.0)) < 1e-12
    wide = boolean_stable(StableParams(alpha=2.0, b=2.0,
                                       kind=StableKind.BOOLEAN), cutoff=12.0)
    for n in range(1, 7):
        assert abs(wide.moment(2.0 * n) - 2.0 ** n) < 1e-12


def test_monotone_alpha_two_is_arcsine():
    m = monotone_stable(2.0, 2.0, cutoff=12.0)
    for g, want in ((2.0, 1.0), (4.0, 1.5), (6.0, 2.5)):
        assert abs(m.moment(g) - want) < 1e-10
    F, branch = monotone_stable_form(2.0, 2.0, cutoff=12.0)
    assert branch is Branch.MONOTONE
    plain = GenSeries(F.spec, F.variable, F.normalization,
                      {0.0: 1.0, 2.0: -2.0}, F.cutoff)
    surd = binomial_power(plain, 0.5)
    keys = set(F.terms) | set(surd.terms)
    assert max(abs(F.terms.get(k, 0j) - surd.terms.get(k, 0j))
               for k in keys) < 1e-12


def test_monotone_weight_has_no_phase_window():
    # monotone admissibility is unconstrained in the weight's phase
    m = monotone_stable(0.5, 1.0, cutoff=6.0)
    assert math.isfinite(abs(m.moment(0.5)))


# -------------------------------------------- coincidence, self-similarity

def test_cauchy_is_the_common_fixed_point_of_all_kinds():
    builders = (
        lambda: classical_stable(StableParams(alpha=1.0, b=1j), cutoff=14.0)[0],
        lambda: free_stable(StableParams(alpha=1.0, b=1j,
                                         kind=StableKind.FREE), cutoff=14.0),
        lambda: boolean_stable(StableParams(alpha=1.0, b=1j,
                                            kind=StableKind.BOOLEAN),
                               cutoff=14.0),
        lambda: monotone_stable(1.0, 1j, cutoff=14.0),
    )
    want = cauchy_moments(14.0)
    for make in builders:
        assert worst_termwise(make(), want) < 1e-12


def test_convolving_a_stable_law_with_itself_doubles_the_weight():
    alpha = 1.3
    b = symmetric_phase(alpha)
    pairs = (
        (classical_convolve,
         lambda w: classical_stable(StableParams(alpha=alpha, b=w),
                                    cutoff=10.0)[0]),
        (free_convolve,
         lambda w: free_stable(StableParams(alpha=alpha, b=w,
                                            kind=StableKind.FREE),
                               cutoff=10.0)),
        (boolean_convolve,
         lambda w: boolean_stable(StableParams(alpha=alpha, b=w,
                                               kind=StableKind.BOOLEAN),
                                  cutoff=10.0)),
        (monotone_convolve, lambda w: monotone_stable(alpha, w, cutoff=10.0)),
    )
    for conv, make in pairs:
        one = make(b)
        assert worst_termwise_rel(conv(one, one), make(2.0 * b)) < 1e-9


def test_deep_free_self_convolution_closes():
    # the route through the Voiculescu series and back missed by 7.5e7
    # here; subordination reads 1.2e-15
    alpha = 0.4
    b = symmetric_phase(alpha)

    def make(w):
        return free_stable(StableParams(alpha=alpha, b=w, kind=StableKind.FREE),
                           cutoff=48.0)

    one = make(b)
    assert worst_termwise_rel(free_convolve(one, one), make(2.0 * b)) <= 1e-8


@pytest.mark.parametrize("alpha, cutoff", [(0.3, 32.0), (0.65, 32.0), (math.pi / 8, 16.0)])
def test_free_self_convolutions_close_to_double_precision(alpha, cutoff):
    # measured 6.6e-14, 4.2e-15 and 1.6e-15; the Voiculescu route missed by
    # 4.8e-2, 7.3e-2 and 7.7e-11
    b = symmetric_phase(alpha)

    def make(w):
        return free_stable(StableParams(alpha=alpha, b=w, kind=StableKind.FREE), cutoff)

    one = make(b)
    assert worst_termwise_rel(free_convolve(one, one), make(2.0 * b)) <= 1e-13


def test_drifted_free_self_convolution_closes_off_a_progression():
    # the drift puts the law on {0.7, 1}, 174 exponents at cutoff 20, where
    # the pass runs on the pair list: measured 1.9e-12, the Voiculescu
    # route 5.2e-6
    def make(w, g):
        return free_stable(StableParams(0.7, w, g, kind=StableKind.FREE), 20.0)

    one = make(1j, 0.3)
    assert not one.series.grid().progression()
    assert worst_termwise_rel(free_convolve(one, one), make(2j, 0.6)) <= 1e-10


def test_free_self_convolution_closes_on_a_progression():
    # the online pass runs on the multiples of alpha; in the reversions of
    # the Voiculescu route the tail terms of a coefficient reached 2e7 where
    # every coefficient is below 1, and summed in another order than the
    # residual check they missed it by their roundoff and raised
    # NonConvergentReversionError
    b = 0.851773574992444 + 0.3919067988726227j

    def make(w):
        return free_stable(StableParams(alpha=1.75, b=w, kind=StableKind.FREE), cutoff=28.0)

    one = make(b)
    assert worst_termwise_rel(free_convolve(one, one), make(2.0 * b)) <= 1e-8


# ------------------------------------------------- positive stable density

def test_half_stable_density_closed_form():
    d = positive_stable_density(0.5)
    assert d.x_min == pytest.approx(1.9634954084936205, abs=1e-12)
    for x in (2.0, 4.0, 8.0):
        want = x ** -1.5 * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))
        assert abs(d.density(x) - want) / want < 1e-10


def test_half_stable_series_drops_vanishing_integer_terms():
    # sin(pi n alpha) is exactly zero at integer exponents; float noise
    # there must not leave ghost coefficients
    d = positive_stable_density(0.5)
    assert all(p != round(p) for p in d.powers)


def test_half_stable_tail_mass_matches_erf():
    quad = pytest.importorskip("scipy.integrate").quad
    d = positive_stable_density(0.5)
    lo = d.x_min * 1.000001
    got, quad_err = quad(lambda u: d.density(1.0 / u) / u ** 2,
                         1e-12, 1.0 / lo, limit=200)
    want = math.erf(1.0 / (2.0 * math.sqrt(lo)))
    assert abs(got - want) < 1e-9 + 10.0 * quad_err


def test_positive_stable_density_guards():
    d = positive_stable_density(0.5)
    with pytest.raises(OutsideValidityRegionError):
        d.density(1.0)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidArgumentError):
            positive_stable_density(alpha)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, math.nan, math.inf, 0.49])
def test_positive_stable_density_refuses_a_cutoff_that_keeps_no_term(cutoff):
    with pytest.raises(InvalidArgumentError, match="cutoff"):
        positive_stable_density(0.5, cutoff)


def test_positive_stable_density_refuses_coefficients_past_double_range():
    # at n = 343, Gamma(n/2 + 1) / n! reads inf / inf = nan
    with pytest.raises(ResourceGuardError, match="in double precision"):
        positive_stable_density(0.5, 200.0)


# ----------------------------------------------------------------- mixture

def test_point_mixture_recovers_plain_stable_transform():
    m, _tail = stable_mixture([1.0] * 41, 0.5, cutoff=20.0)
    assert abs(complex(FourierEvaluator(m)(1.0)) - math.exp(-1.0)) < 1e-12


def test_uniform_mixture_produces_valid_tail_model():
    m, tail = stable_mixture([1.0 / (n + 1) for n in range(30)], 0.7,
                             cutoff=14.0)
    x = 2.0 * max(tail.x_min, 1.0)
    assert tail.density(x) > 0.0
    assert abs(m.moment(0.0) - 1.0) < 1e-14


@pytest.mark.parametrize("cutoff", [20.0, 200.0])
def test_point_mixture_at_alpha_one_is_the_cauchy_law_bit_for_bit(cutoff):
    # past n = 170, Gamma(n + 1) / n! is 1 by the difference of its logs
    m, _tail = stable_mixture(itertools.repeat(1.0), 1.0, cutoff=cutoff)
    want, _ = classical_stable(StableParams(1.0, 1j), cutoff=cutoff)
    assert m.spec == want.spec and m.cutoff == want.cutoff
    assert m.series.coefs.tobytes() == want.series.coefs.tobytes()


def test_mixture_moments_past_factorial_overflow_stay_exact():
    mpmath = pytest.importorskip("mpmath")
    m, _tail = stable_mixture(itertools.repeat(1.0), 0.5, cutoff=100.0)
    for n in (170, 171, 200):
        # |m_{n/2}| = Gamma(n/2 + 1) / n!, 1.2e-217 at n = 200
        want = float(mpmath.gamma(mpmath.mpf(n) / 2 + 1) / mpmath.factorial(n))
        assert abs(m.moment(n / 2.0)) == pytest.approx(want, rel=1e-12)


def test_mixture_moments_take_both_gammas_up_to_170_factorial():
    mpmath = pytest.importorskip("mpmath")
    # Gamma(171) = 170! is a double, so n = 170 takes both gammas as the n
    # below it do; from n = 171 on the difference of the logs loses up to
    # 4.3e-14, where the n up to 170 read 2.4e-16 at most
    m, _tail = stable_mixture(itertools.repeat(1.0), 0.5, cutoff=100.0)
    for n in range(166, 173):
        with mpmath.workdps(40):
            want = mpmath.gamma(mpmath.mpf(n) / 2 + 1) / mpmath.factorial(n)
            err = abs(float(mpmath.mpf(abs(m.moment(n / 2.0))) / want - 1))
        assert err <= (5e-16 if n <= 170 else 1e-13), (n, err)


def test_a_weighted_gamma_past_double_range_takes_logs_at_either_sign():
    mpmath = pytest.importorskip("mpmath")
    # w Gamma(tau + 1) overflows to -inf or +inf by the sign of the weight
    # w, and either way the ratio is finite, through the logs
    k = [25.0, 99.0, 100.0]
    w = [-1e300, -1e300, 1e300]
    got = stable_module._gamma_ratios(0.5 * np.array(k), np.array(k), w)
    with mpmath.workdps(40):
        for g, kk, v in zip(got.tolist(), k, w):
            want = v * mpmath.gamma(kk / 2 + 1) / mpmath.factorial(int(kk))
            assert abs(g / want - 1) <= 1e-12, (kk, g)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_mixture_integer_moments_carry_no_ghost_parts(alpha):
    # i^(-alpha n) is exactly +-1 or +-i at an integer alpha n, so the
    # even moments are real and the odd ones imaginary, and the tail
    # model keeps only the odd integer exponents
    m, tail = stable_mixture([1.0 / (n + 1) for n in range(41)], alpha, cutoff=20.0)
    for n in range(21):
        c = m.moment(float(n))
        assert (c.imag if n % 2 == 0 else c.real) == 0.0
    assert sorted(b for b in tail.a if b.is_integer()) == list(range(1, 20, 2))


def test_mixture_validations():
    with pytest.raises(InvalidArgumentError):
        stable_mixture([0.5, 0.2], 0.5)
    with pytest.raises(InvalidArgumentError):
        stable_mixture([1.0, 0.2], 1.3)


# ------------------------------------------------------- supremum density

def test_supremum_corner_coefficient_closed_form():
    alpha, rho = 1.0 / math.sqrt(2.0), 0.5
    got = supremum_coefficient(alpha, rho, 0, 1)
    want = -math.sin(math.pi * alpha * rho) / (
        math.gamma(2.0) * math.gamma(-alpha) * math.sin(math.pi * alpha))
    assert got == pytest.approx(0.25954395275825426, abs=1e-12)
    assert got == pytest.approx(want, abs=1e-12)


def test_supremum_symmetric_corner_is_real_and_finite():
    got = supremum_coefficient(0.5, 0.5, 0, 1)
    want = -math.sin(math.pi * 0.25) / (math.gamma(-0.5) * math.sin(math.pi * 0.5))
    assert got == pytest.approx(want, abs=1e-12)


def test_supremum_resonant_orders_refuse():
    # alpha = 1/2 makes sin(pi j / alpha) vanish for every j >= 1
    with pytest.raises(ResonanceError):
        supremum_coefficient(0.5, 0.5, 1, 1)
    # alpha = 3/5 resonates at j = 3
    with pytest.raises(ResonanceError):
        supremum_coefficient(0.6, 0.5, 3, 0)


def test_supremum_density_series_sane():
    quad = pytest.importorskip("scipy.integrate").quad
    d = supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6, M=12, N=12))
    assert d.x_min == pytest.approx(0.36347705188733553, rel=1e-9)
    for c in (1.05, 2.0, 5.0):
        assert d.density(c * d.x_min) > 0.0
    assert d.remainder_estimate(2.0 * d.x_min) > 0.0
    got, quad_err = quad(lambda u: d.density(1.0 / u) / u ** 2,
                         1e-12, 1.0 / (d.x_min * 1.0001), limit=200)
    # a sub-probability mass: the series tail cannot exceed full weight
    assert 0.0 < got < 1.0 + 100.0 * quad_err


def _scipy_supremum_coefficient(special, alpha, rho, m, n):
    val = (-1.0) ** (m + n) / (float(special.gamma(1.0 + m / alpha + n))
                               * float(special.gamma(-m - alpha * n)))
    for j in range(1, m + 1):
        val *= math.sin(math.pi * (alpha * rho + j - 1.0) / alpha) \
            / math.sin(math.pi * j / alpha)
    for j in range(1, n + 1):
        val *= math.sin(math.pi * alpha * (rho + j - 1.0)) / math.sin(math.pi * alpha * j)
    return val


def test_supremum_coefficients_match_scipy_gamma():
    special = pytest.importorskip("scipy.special")
    for alpha in (0.3141, 0.5501, 0.7345, 0.9123):
        for rho in (0.25, 0.8):
            for m in range(16):
                for n in range(1, 16):
                    got = supremum_coefficient(alpha, rho, m, n)
                    want = _scipy_supremum_coefficient(special, alpha, rho, m, n)
                    assert abs(got - want) <= 1e-14 * abs(want), (alpha, rho, m, n)
    # Gamma(1 + m/alpha + n) = Gamma(193.02...) overflows: the coefficient is 0
    assert _scipy_supremum_coefficient(special, 0.3141, 0.5, 60, 1) == 0.0
    assert supremum_coefficient(0.3141, 0.5, 60, 1) == 0.0


def test_supremum_series_size_is_guarded(monkeypatch):
    monkeypatch.setattr(stable_module, "MAX_SUPREMUM_TERMS", 10)
    supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6, M=4, N=2))
    with pytest.raises(ResourceGuardError, match="12 coefficients"):
        supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6, M=3, N=3))


def test_supremum_series_refuses_coefficients_past_double_range():
    # at M = N = 150 some b_{m,n} read inf * 0 = nan in double precision
    with pytest.raises(ResourceGuardError, match="nan"):
        supremum_density(SupremumSeriesParams(alpha=0.7345, rho=0.5, M=150, N=150))


def test_supremum_series_requires_small_alpha():
    with pytest.raises(InvalidArgumentError):
        supremum_density(SupremumSeriesParams(alpha=1.5, rho=0.5, M=4, N=4))
    with pytest.raises(InvalidArgumentError):
        SupremumSeriesParams(alpha=0.5, rho=1.2, M=4, N=4)


# ---------------------------------------------------- last passage density

def test_last_passage_leading_coefficient_closed_forms():
    got = last_passage_coefficient(1.5, 2, 0)
    want = 2.0 / (1.5 * math.gamma(0.25)) * math.gamma(4.0 / 3.0) \
        / math.gamma(1.25)
    assert got == pytest.approx(0.36230812413103336, abs=1e-12)
    assert got == pytest.approx(want, abs=1e-12)
    got3 = last_passage_coefficient(1.5, 3, 0)
    want3 = 2.0 * math.gamma(2.0) / (1.5 * math.gamma(0.75) * math.gamma(1.75))
    assert got3 == pytest.approx(want3, abs=1e-12)


def test_last_passage_coefficients_match_scipy_gamma():
    special = pytest.importorskip("scipy.special")

    def want(alpha, d, m):
        lead = 2.0 / (alpha * float(special.gamma((d - alpha) / 2.0)))
        val = lead * (-1.0) ** m * float(special.gamma((d + 2.0 * m) / alpha))
        return val / (float(special.gamma(m + 1.0))
                      * float(special.gamma((d - alpha) / 2.0 + m + 1.0)))

    for alpha, d in ((1.1, 2), (1.5, 3), (1.9, 5), (2.5, 3)):
        for m in range(60):
            w = want(alpha, d, m)
            assert abs(last_passage_coefficient(alpha, d, m) - w) <= 1e-14 * abs(w)
    # Gamma(192 / 1.1) overflows while the other factors stay finite
    assert want(1.1, 2, 95) == last_passage_coefficient(1.1, 2, 95) == -math.inf
    with pytest.raises(ResourceGuardError, match="is inf in double precision"):
        last_passage_density(LastPassageParams(alpha=1.1, d=2, M=100))


def test_last_passage_density_leading_order():
    d = last_passage_density(LastPassageParams(alpha=1.5, d=2, M=16))
    assert d.x_min == pytest.approx(1.8910155894093807, rel=1e-9)
    lead = d.coefs[d.powers.index(min(d.powers))]
    t = 1000.0
    assert abs(d.density(t) * t ** (2.0 / 1.5) / lead - 1.0) < 1e-3


def test_last_passage_guards():
    with pytest.raises(InvalidArgumentError):
        LastPassageParams(alpha=0.5, d=2, M=6)
    with pytest.raises(InvalidArgumentError):
        last_passage_density(LastPassageParams(alpha=1.5, d=0, M=6))
    d = last_passage_density(LastPassageParams(alpha=1.5, d=2, M=8))
    with pytest.raises(OutsideValidityRegionError):
        d.density(0.5 * d.x_min)


# ------------------------------------------------- power-sum densities

def _sum_in_order(terms, x):
    """Density and edge remainder at x from (exponent of x, coefficient,
    edge) terms, each summed in the given order."""
    return (sum(c * x ** q for q, c, _ in terms),
            2.0 * sum(abs(c * x ** q) for q, c, e in terms if e))


def _positive_stable_terms(alpha, cutoff):
    out = []
    n = 1
    while n * alpha <= cutoff:
        e = n * alpha
        if e != round(e):
            c = math.sin(math.pi * e) * (math.gamma(e + 1.0) / math.gamma(n + 1.0)) / math.pi
            out.append((-1.0 - e, -c if n % 2 == 0 else c, False))
        n += 1
    return out


def _supremum_terms(alpha, rho, M, N):
    return [(-1.0 - m - n * alpha, supremum_coefficient(alpha, rho, m, n), m == M or n == N)
            for m in range(M + 1) for n in range(1, N + 1)]


def _last_passage_terms(alpha, d, M):
    return [(-((d + 2.0 * m) / alpha), last_passage_coefficient(alpha, d, m), False)
            for m in range(M + 1)]


@pytest.mark.parametrize("build, terms", [
    (lambda: positive_stable_density(0.5), lambda: _positive_stable_terms(0.5, 20.0)),
    (lambda: positive_stable_density(0.6, 12.0), lambda: _positive_stable_terms(0.6, 12.0)),
    (lambda: positive_stable_density(0.75), lambda: _positive_stable_terms(0.75, 20.0)),
    (lambda: supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6, M=12, N=12)),
     lambda: _supremum_terms(0.43, 0.6, 12, 12)),
    (lambda: supremum_density(SupremumSeriesParams(alpha=0.7345, rho=0.5, M=4, N=6)),
     lambda: _supremum_terms(0.7345, 0.5, 4, 6)),
    (lambda: last_passage_density(LastPassageParams(alpha=1.5, d=3, M=20)),
     lambda: _last_passage_terms(1.5, 3, 20)),
    (lambda: last_passage_density(LastPassageParams(alpha=2.5, d=3, M=7)),
     lambda: _last_passage_terms(2.5, 3, 7)),
], ids=["positive-0.5", "positive-0.6", "positive-0.75", "supremum-0.43",
        "supremum-0.7345", "last-passage-1.5", "last-passage-2.5"])
def test_density_sums_each_term_in_formula_order(build, terms):
    # exact equality pins the term order and the rounding of each power
    d, want = build(), terms()
    for f in (1.001, 1.5, 2.0, 3.7, 10.0, 100.0):
        x = f * d.x_min
        value, edge = _sum_in_order(want, x)
        assert d.density(x) == d(x) == value
        assert d.remainder_estimate(x) == edge


# -------------------------------------------------- deformed resolvents

def test_deformed_resolvent_leading_terms():
    g = mu_br(0.5, 1j, 2.0, cutoff=6.0)
    assert g.exponent_shift == 1
    assert abs(g.terms[0.0] - 1.0) < 1e-14
    # first deformation correction is b / r at the tail exponent
    assert abs(g.terms[0.5] - 0.5j) < 1e-14


def test_deformed_resolvent_matches_branch_safe_surd():
    alpha, b, r = 0.5, 1j, 2.0
    g = mu_br(alpha, b, r, cutoff=20.0)
    z = 9.0 * cmath.exp(-1.2j)
    w = b * z ** -alpha
    want = (r * (1.0 - (1.0 - w) ** (1.0 / r)) / w) ** (1.0 / alpha) / z
    assert abs(evaluate(g, z).value - want) < 1e-9


def test_unit_deformation_collapses_to_point_mass():
    g = mu_br(2.0, 1.0, 1.0, cutoff=8.0)
    assert dict(g.terms) == {0.0: 1.0 + 0j}
    # the monotone alpha = 2 law shares only the leading coefficient
    mono = stieltjes_from_moments(monotone_stable(2.0, 1.0, cutoff=8.0))
    assert abs(mono.terms[0.0] - g.terms[0.0]) < 1e-14
    assert abs(mono.terms[2.0] - 0.5) < 1e-14
    assert 2.0 not in g.terms


@pytest.mark.parametrize("alpha, r, b, cutoff", [
    (0.5, 2.0, -1.0, 3.0), (0.3, 3.0, -1.0, 2.0), (1.0, 1.5, 1.0, 8.0), (0.5, 2.0, 1j, 5.0),
])
def test_deformed_resolvent_coefficients_match_taylor_up_to_the_last(alpha, r, b, cutoff):
    # the coefficient at j alpha is b^j times the j-th Taylor coefficient of
    # (r (1 - (1 - w)^(1/r)) / w)^(1/alpha), here by mpmath's contour quadrature;
    # the last one, at the cutoff, needs the inner power built past it
    mpmath = pytest.importorskip("mpmath")
    g = mu_br(alpha, b, r, cutoff=cutoff)
    J = int(cutoff / alpha + 1e-9)
    with mpmath.workdps(30):  # mpmath's precision is global: restore it on exit
        a, rr = mpmath.mpf(alpha), mpmath.mpf(r)
        taylor = mpmath.taylor(lambda w: (rr * (1 - (1 - w) ** (1 / rr)) / w) ** (1 / a),
                               0, J, method="quad", radius=0.5)
        want = [complex(t * mpmath.mpc(b) ** j) for j, t in enumerate(taylor)]
    for j in range(J + 1):
        assert abs(g.coefficient(j * alpha) - want[j]) <= 1e-12 * abs(want[j])


def _mid_window_phase(alpha):
    if alpha <= 1.0:
        lo, hi = (1.0 - alpha) * math.pi, math.pi
    else:
        lo, hi = 0.0, (2.0 - alpha) * math.pi
    return cmath.exp(0.5j * (lo + hi))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.3, 1.7, 2.0])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_deformed_resolvent_builds_across_the_phase_window(alpha, r):
    # at alpha = 1.3, r = 1 the normalizing lead / lead reads 1 + 4.9e-17j
    b = _mid_window_phase(alpha)
    g = mu_br(alpha, b, r)
    assert g.terms[0.0] == 1
    z = complex(40.0, -30.0)
    w = b * z ** -alpha
    want = (r * (1.0 - (1.0 - w) ** (1.0 / r)) / w) ** (1.0 / alpha) / z
    assert abs(evaluate(g, z).value - want) <= 1e-12 * abs(want)


def test_deformed_resolvent_validations():
    with pytest.raises(InvalidArgumentError):
        mu_br(0.5, 1j, 0.5)
    with pytest.raises(InvalidArgumentError):
        mu_br(0.5, 0.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        mu_br(0.5, 1.0, 2.0)
