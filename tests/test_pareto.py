"""One-sided power tails under the Fourier transform: the split into a
regular power series, a four-element singular block, and the absorbed
oscillatory constant.

The quadrature oracle lives in the oracles module and integrates on a
rotated contour; here it is cross-checked once per tail class and the
frozen coefficient values carry the rest.
"""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import pytest

from powertail.errors import (InvalidArgumentError, NearIntegerWarning,
                              OutsideValidityRegionError, ResourceGuardError)
from powertail.oracles import rotated_pareto_transform
from powertail.pareto import (CancellationResidual, ParetoExpansion,
                              cancellation_residual, negative_tail_fourier,
                              oscillatory_constant, pareto_fourier)


def test_small_z_limit_recovers_positive_tail_mass():
    # integral of x^(-3/2) over (1, inf) is 2
    exp = pareto_fourier(0.5, 1.0, cutoff=20.0)
    assert abs(exp.evaluate(1e-12) - 2.0) < 1e-5


def test_small_z_limit_is_independent_of_tail_start():
    # the profile is (x/R)^(-beta-1)/R, so the mass is a/beta for any R
    exp = pareto_fourier(0.5, 2.0, cutoff=20.0)
    assert abs(exp.evaluate(1e-12) - 2.0) < 1e-5


def test_small_z_limit_of_negative_tail_carries_reflection_phase():
    exp = negative_tail_fourier(0.5, 1.0, cutoff=20.0)
    want = cmath.exp(1.5j * math.pi) / 0.5
    assert abs(exp.evaluate(1e-12) - want) < 1e-5


def test_expansion_matches_rotated_quadrature():
    exp = pareto_fourier(1.7, 1.0, cutoff=20.0)
    q = complex(rotated_pareto_transform(1.7, 1.0, 0.1))
    assert abs(exp.evaluate(0.1) - q) / abs(q) < 1e-8


def test_negative_tail_is_phase_conjugate_of_positive():
    beta, z = 0.7, 0.25
    pos = pareto_fourier(beta, 1.0, cutoff=20.0).evaluate(z)
    neg = negative_tail_fourier(beta, 1.0, cutoff=20.0).evaluate(z)
    phase = cmath.exp(1j * math.pi * (beta + 1.0))
    assert abs(neg - phase * pos.conjugate()) < 1e-10


# --------------------------------------------- integer tails carry a log

def test_log_coefficients_at_small_integers():
    want = {1.0: -1j, 2.0: 0.5, 3.0: 1j / 6.0}
    for beta, coef in want.items():
        exp = pareto_fourier(beta, 1.0, cutoff=12.0)
        assert exp.singular.has_log_term
        assert abs(exp.singular.coef_log - coef) < 1e-14


def test_fractional_tail_has_no_log():
    exp = pareto_fourier(0.5, 1.0, cutoff=12.0)
    assert not exp.singular.has_log_term
    assert exp.singular.coef_log == 0


def test_near_integer_exponent_snaps_with_warning():
    with pytest.warns(NearIntegerWarning):
        exp = pareto_fourier(2.0 + 1e-12, 1.0, cutoff=12.0)
    assert exp.snapped_to_integer
    assert abs(exp.singular.coef_log - 0.5) < 1e-12


def test_exponent_outside_snap_window_stays_fractional():
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearIntegerWarning)
        exp = pareto_fourier(2.0 + 1e-7, 1.0, cutoff=12.0)
    assert not exp.snapped_to_integer
    assert not exp.singular.has_log_term


# --------------------------------------------------- oscillatory constant

def _oscillatory_by_parts(s, L=500.0):
    """Independent route: real-axis quadrature on [1, L] plus a three
    term integration-by-parts asymptotic for the tail beyond L."""
    quad = pytest.importorskip("scipy.integrate").quad
    re, _ = quad(lambda x: math.cos(x) * x ** -s, 1.0, L, limit=800)
    im, _ = quad(lambda x: math.sin(x) * x ** -s, 1.0, L, limit=800)
    tail = 0j
    factor = 1.0 + 0j
    for j in range(3):
        tail += factor * 1j * L ** -(s + j)
        factor *= -1j * (s + j)
    return complex(re, im) + cmath.exp(1j * L) * tail


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_oscillatory_constant_against_parts_asymptotics(s):
    got = oscillatory_constant(s)
    want = _oscillatory_by_parts(s)
    # the parts tail is controlled by s(s+1) L^(-s-2), far below 1e-7
    assert abs(got - want) < 1e-7


@pytest.mark.parametrize("s", [0.2, 1.3, 1.5, 2.0, 2.5, 2.99])
def test_oscillatory_constant_is_the_incomplete_gamma(s):
    # integral_1^inf e^{ix} x^(-s) dx = (-i)^(s-1) Gamma(1-s, -i)
    got = oscillatory_constant(s)
    with mpmath.workdps(30):
        want = (-1j) ** (mpmath.mpf(s) - 1) * mpmath.gammainc(1 - mpmath.mpf(s), -1j)
        assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want)


def test_oscillatory_constant_rejects_nonpositive_exponent():
    with pytest.raises(InvalidArgumentError):
        oscillatory_constant(0.0)


# ------------------------------------------------------- singular algebra

def test_singular_block_evaluates_on_its_basis():
    exp = pareto_fourier(2.5, 1.5, cutoff=12.0)
    s = exp.singular
    z = 0.4
    w = s.R * z
    want = (s.coef_floor * w ** s.floor_exponent
            + s.coef_floor_plus_one * w ** (s.floor_exponent + 1)
            + s.coef_beta * w ** s.beta)
    assert abs(s.evaluate(z) - want) < 1e-15


def test_conjugate_scaled_moves_only_coefficients():
    s = pareto_fourier(1.0, 1.0, cutoff=8.0).singular
    phase = cmath.exp(0.3j)
    t = s.conjugate_scaled(phase)
    z = 0.7
    # basis functions are real for z > 0, so the identity is pointwise
    assert abs(t.evaluate(z) - phase * s.evaluate(z).conjugate()) < 1e-14


def test_two_sided_combination_always_cancels_the_log():
    # the reflected tail contributes the conjugate log weight, and the
    # two always annihilate regardless of the tail weight's phase
    for beta in (1.0, 2.0, 3.0):
        for theta in (0.0, 0.4, 1.1, 2.0):
            res = cancellation_residual(cmath.exp(1j * theta), beta, 1.0, 0.3)
            assert res.log_term_cancels


def test_cancellation_residual_decomposition_consistent():
    res = cancellation_residual(1j, 2.0, 1.0, 0.3)
    w = res.R * 0.3
    want = (res.coef_floor * w ** res.floor_exponent
            + res.coef_floor_plus_one * w ** (res.floor_exponent + 1)
            + res.coef_beta * w ** res.beta
            + res.coef_log * w ** res.beta * math.log(w))
    assert abs(complex(res) - want) < 1e-14


def test_cancellation_residual_guards_arguments():
    with pytest.raises(InvalidArgumentError):
        cancellation_residual(1j, -1.0, 1.0, 0.3)
    with pytest.raises(InvalidArgumentError):
        cancellation_residual(1j, 0.5, 1.0, 0.0)


# ------------------------------------------------------ remainder control

def test_remainder_bound_dominates_truncation_error():
    for beta in (0.3, 1.2, 2.5):
        full = pareto_fourier(beta, 1.0, cutoff=26.0)
        short = pareto_fourier(beta, 1.0, cutoff=12.0)
        for z in (0.1, 0.4):
            diff = abs(full.evaluate(z) - short.evaluate(z))
            assert diff <= short.remainder_bound(z)


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.5])
def test_cutoff_past_170_keeps_the_terms_below_it(beta):
    # R^k / k! is one running product, so neither k! nor R^k leaves the
    # float range on the way to a term that is itself finite
    short = pareto_fourier(beta, 1.0, cutoff=20.0)
    long = pareto_fourier(beta, 1.0, cutoff=200.0)
    head = {k: c for k, c in long.regular.terms.items() if k <= 20.0}
    assert head == dict(short.regular.terms)
    assert long.singular == short.singular
    assert 0.0 <= long.remainder_bound(0.4) < math.inf


def test_remainder_bound_grows_with_z():
    exp = pareto_fourier(0.8, 1.0, cutoff=12.0)
    assert exp.remainder_bound(0.1) < exp.remainder_bound(0.4)


def test_evaluate_rejects_nonpositive_argument():
    exp = pareto_fourier(0.8, 1.0, cutoff=12.0)
    with pytest.raises(OutsideValidityRegionError):
        exp.evaluate(0.0)


def test_regular_coefficients_stay_inside_fitted_envelope():
    # fit the envelope constant on low orders, then it must cover the
    # rest of the table: (2R)^n / n! for integers, r^n / n! offsets
    exp = pareto_fourier(0.5, 1.0, cutoff=20.0)
    terms = {k: abs(v) for k, v in exp.regular.terms.items() if k > 0}

    def envelope(k):
        n = int(math.floor(k))
        return (2.0 ** n + 0.4 ** n) / math.factorial(n)

    c_low = max(v / envelope(k) for k, v in terms.items() if k <= 10.0)
    for k, v in terms.items():
        assert v <= c_low * envelope(k) * (1.0 + 1e-9)


@pytest.mark.parametrize("beta, R, cutoff", [
    (1.5, 1e5, 200.0),  # R^k / k! is about 1e309 at k = 89
    (0.5, 1e200, 20.0), (1.5, 1e100, 20.0),
])
def test_powers_of_R_past_double_range_are_refused(beta, R, cutoff):
    with pytest.raises(ResourceGuardError, match="R = .* cutoff %g .* this limit" % cutoff):
        pareto_fourier(beta, R, cutoff)


def _integer_coefficient(beta, R, n):
    """The coefficient of z^n / i^n in the expansion of a tail with beta > 1,
    in exact rationals from the doubles beta and R: the boundary sum over
    k < floor(beta) of R^n / ((n - k + 1)! beta (beta - 1) ... (beta - k + 1)),
    less the k-family's R^n / (k! (k - beta + fl - 1) beta ... (beta - fl + 2))
    at k = n - fl + 1, which skips k = 1 and 2."""
    b, r, fl = Fraction(beta), Fraction(R), math.floor(beta)
    falling = [Fraction(1)]
    for j in range(fl):
        falling.append(falling[-1] * (b - j))
    out = sum(r ** n / (math.factorial(n - k + 1) * falling[k])
              for k in range(1, fl) if k <= n + 1)
    k = n - fl + 1
    if k >= 0 and k not in (1, 2):
        out -= r ** n / (math.factorial(k) * (k - b + fl - 1) * falling[fl - 1])
    return out


@pytest.mark.parametrize("beta, R, cutoff", [(4.5, 2.5, 40.0), (7.3, 0.5, 30.0),
                                             (12.25, 3.0, 60.0)])
def test_integer_coefficients_keep_their_digits(beta, R, cutoff):
    # the boundary sum and the k-family nearly cancel at high integer
    # exponents; summed apart they lost up to 1.8e-6 relative here
    regular = pareto_fourier(beta, R, cutoff).regular
    for n in range(int(cutoff) + 1):
        want = float(_integer_coefficient(beta, R, n)) * 1j ** (n % 4)
        got = regular.coefficient(float(n))
        assert abs(got - want) <= 1e-14 * abs(want), n
