"""The four drift-free stable families against their closed-form moments.

With no drift, each family's moments live on the multiples alpha k of
alpha and are known in closed form (``helpers.closed_form_moments``):

  * classical, exp(i^alpha b z^alpha): b^k Gamma(alpha k + 1) / k!;
  * Boolean, F = z - b z^(1-alpha): b^k;
  * monotone, F = (z^alpha - b)^(1/alpha): (1/alpha)_k b^k / k!;
  * free, phi = b z^(1-alpha): b^k C(alpha k, k - 1) / k.

Each family is closed under its own convolution with b adding, so
m(b1) * m(b2) = m(b1 + b2) checks a convolution of two distinct laws
against a 40-digit reference at any depth.  All four closures are
checked here; the free convolution subordinates its operands in one
online pass, where the route through the Voiculescu series and back
missed by up to 1.2e5 at cutoff 48.

The constructors build these moments directly, with no series kernel;
drift enters the classical and free laws as a point mass, and the
Boolean law with drift is the reciprocal of its form.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import powertail.series as series_module
from helpers import (closed_form_moments, symmetric_phase, worst_against,
                     worst_termwise_rel)
from powertail.errors import InvalidArgumentError, ResourceGuardError, ToleranceMergeWarning
from powertail.semigroup import SemigroupSpec, exponent_grid
from powertail.series import GenSeries, Normalization, Variable, evaluate, graded_exp
from powertail.stable import (StableKind, StableParams, _stable_moments, boolean_stable,
                              classical_stable, classical_stable_scale_skew,
                              free_stable, monotone_stable)
from powertail.transforms import (FourierEvaluator, boolean_convolve,
                                  classical_convolve, free_convolve, moment_series,
                                  moments_from_voiculescu, monotone_convolve,
                                  stieltjes_from_moments)

KINDS = ("classical", "boolean", "monotone", "free")
ALPHAS = (0.3, 0.4, 0.7, 1.3)
CUTOFFS = (24.0, 48.0)


def build(kind, alpha, b, cutoff, gamma_shift=0.0):
    if kind == "classical":
        return classical_stable(StableParams(alpha, b, gamma_shift), cutoff)[0]
    if kind == "monotone":
        return monotone_stable(alpha, b, cutoff)
    params = StableParams(alpha, b, gamma_shift, kind=StableKind[kind.upper()])
    return (free_stable if kind == "free" else boolean_stable)(params, cutoff)


def other_weight(alpha):
    """A second admissible weight, off the first one's ray and modulus."""
    return 0.6 * cmath.exp(0.3j) * symmetric_phase(alpha)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", KINDS)
def test_each_constructor_is_its_closed_form(kind, alpha, cutoff):
    b = symmetric_phase(alpha)
    m = build(kind, alpha, b, cutoff)
    assert worst_against(m, closed_form_moments(kind, alpha, b, m.series.grid())) <= 1e-14


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind, convolve", [("classical", classical_convolve),
                                            ("boolean", boolean_convolve)])
def test_distinct_laws_close_in_both_orders(kind, convolve, alpha, cutoff):
    b1, b2 = symmetric_phase(alpha), other_weight(alpha)
    m1, m2 = build(kind, alpha, b1, cutoff), build(kind, alpha, b2, cutoff)
    want = closed_form_moments(kind, alpha, b1 + b2, m1.series.grid())
    assert worst_against(convolve(m1, m2), want) <= 1e-14
    assert worst_against(convolve(m2, m1), want) <= 1e-14


@pytest.mark.parametrize("alpha, cutoff", [(0.3, 32.0), (0.4, 24.0), (0.4, 48.0),
                                           (0.7, 32.0), (1.3, 24.0)])
def test_distinct_monotone_laws_close_in_both_orders(alpha, cutoff):
    # the moments substitute into each other with no reciprocal; the route
    # through two reciprocals and a composition of forms missed by up to
    # 3.7e-11 at (0.3, 32)
    b1, b2 = symmetric_phase(alpha), other_weight(alpha)
    m1, m2 = build("monotone", alpha, b1, cutoff), build("monotone", alpha, b2, cutoff)
    want = closed_form_moments("monotone", alpha, b1 + b2, m1.series.grid())
    assert worst_against(monotone_convolve(m1, m2), want) <= 5e-14
    assert worst_against(monotone_convolve(m2, m1), want) <= 5e-14


@pytest.mark.parametrize("alpha, cutoff", [(0.4, 24.0), (0.4, 48.0), (0.7, 32.0),
                                           (1.3, 24.0)])
def test_distinct_free_laws_close_in_both_orders(alpha, cutoff):
    # measured within 2.3e-15; through the Voiculescu series 1.2e-7, 1.2e5,
    # 9.9e-4 and 4.2e-14
    b1, b2 = symmetric_phase(alpha), other_weight(alpha)
    m1, m2 = build("free", alpha, b1, cutoff), build("free", alpha, b2, cutoff)
    want = closed_form_moments("free", alpha, b1 + b2, m1.series.grid())
    assert worst_against(free_convolve(m1, m2), want) <= 1e-14
    assert worst_against(free_convolve(m2, m1), want) <= 1e-14


def test_no_drift_free_constructor_runs_a_series_kernel(monkeypatch):
    real, calls = series_module._euler_rows, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(series_module, "_euler_rows", counted)
    _stable_moments.cache_clear()  # an interned law would run no code at all
    for kind in KINDS:
        for alpha in (0.4, 1.0, 1.5, 2.0):
            build(kind, alpha, symmetric_phase(alpha), 20.0)
    classical_stable_scale_skew(0.7, 1.3, 0.4)
    assert calls == []
    # the patch sees a kernel where one runs: a Boolean law with drift
    build("boolean", 0.7, 1j, 20.0, gamma_shift=0.3)
    assert calls == ["reciprocal"]


def test_cauchy_moments_past_gamma_overflow_have_modulus_one():
    # Gamma(k + 1) / k! is 1, also past k = 170 where both overflow
    m, _ = classical_stable(StableParams(1.0, 1j), cutoff=200.0)
    assert sorted(m.terms) == [float(k) for k in range(201)]
    assert all(abs(c) == 1.0 for c in m.terms.values())
    assert max(abs(m.moment(float(k)) - 1j ** (k % 4)) for k in range(201)) == 0.0


def test_a_deep_law_has_no_nan_where_both_gammas_overflow():
    # 971 multiples of 0.4123: Gamma(tau + 1) and k! overflow from k = 171 on,
    # and their ratio underflows long before the cutoff
    b = symmetric_phase(0.4123)
    m, _ = classical_stable(StableParams(0.4123, b), cutoff=400.0)
    assert np.isfinite(m.series.coefs).all()
    want = closed_form_moments("classical", 0.4123, b, m.series.grid())
    assert worst_against(m, want) <= 1e-12


def test_a_law_below_alpha_or_of_weight_zero_is_the_point_mass_at_zero():
    for kind in KINDS:
        assert build(kind, 1.5, symmetric_phase(1.5), 1.0).terms == {0.0: 1.0}
        # Gamma(1.5 k + 1) / k! overflows from k = 248 on, and 0 times it is 0
        assert build(kind, 1.5, 0.0, 400.0).terms == {0.0: 1.0}


@pytest.mark.parametrize("kind, alpha, b, cutoff", [
    ("classical", 0.5, -10.0, 200.0), ("classical", 0.7, 3j, 300.0),
    ("classical", 1.5, 1e-3, 400.0), ("free", 0.7, 10.0 * symmetric_phase(0.7), 250.0)])
def test_a_moment_whose_factors_leave_the_doubles_is_taken_in_logs(kind, alpha, b, cutoff):
    # b^k overflows where its factor underflows, or the reverse, while their
    # product is a normal double; a free factor may be negative
    m = build(kind, alpha, b, cutoff)
    want = closed_form_moments(kind, alpha, b, m.series.grid())
    assert max(abs(m.moment(t) - e) / abs(e) for t, e in want.items() if abs(e) > 1e-300) \
        <= 1e-12


def test_free_moments_vanish_exactly_where_alpha_k_is_a_small_integer():
    # C(alpha k, k - 1) has the factor alpha k - alpha k where alpha k < k - 1
    m = build("free", 0.5, symmetric_phase(0.5), 20.0)
    for k in range(4, 41, 2):
        assert m.moment(0.5 * k) == 0
    assert 0 not in (m.moment(0.5), m.moment(1.0), m.moment(2.5))


def test_a_merged_grid_holds_the_moments_at_its_multiples():
    # 3 alpha lies 3e-11 from 2 and merges with it; 1, 1 + alpha, ... are
    # exponents that are no multiple of alpha
    alpha = 2.0 / 3.0 + 1e-11
    b = symmetric_phase(alpha)
    # the warning comes with the first build of the law's grid
    _stable_moments.cache_clear()
    exponent_grid.cache_clear()
    with pytest.warns(ToleranceMergeWarning):
        m = build("classical", alpha, b, 6.0)
    grid = m.series.grid()
    want = closed_form_moments("classical", alpha, b, grid)
    assert worst_against(m, want) <= 1e-14
    assert m.moment(1.0) == 0 and m.moment(2.0) != 0


def test_free_moments_past_the_factor_budget_are_refused():
    b = symmetric_phase(0.001)
    with pytest.raises(ResourceGuardError, match="binomial factors"):
        build("free", 0.001, b, 48.0)


# ------------------------------------------------------------------- drift

DRIFT = dict(alpha=0.7, b=1j, gamma_shift=0.3, cutoff=20.0)  # the CI argv


def point_mass(spec, x, cutoff):
    return moment_series(spec, {float(n): x ** n for n in range(int(cutoff) + 1)}, cutoff)


@pytest.mark.parametrize("kind, at", [("classical", 1.0), ("free", -1.0)])
def test_a_drifted_law_is_the_drift_free_law_translated(kind, at):
    a, b, g, cutoff = DRIFT["alpha"], DRIFT["b"], DRIFT["gamma_shift"], DRIFT["cutoff"]
    m = build(kind, a, b, cutoff, gamma_shift=g)
    # the free law's Voiculescu series -gamma + b z^(1-alpha) puts its
    # point mass at -gamma
    moved = classical_convolve(build(kind, a, b, cutoff), point_mass(m.spec, at * g, cutoff))
    assert worst_termwise_rel(m, moved) <= 1e-15
    # alpha = 0.7 puts no multiple at 1, so the first moment is the drift's
    assert abs(m.moment(1.0) - at * g) <= 1e-15


def test_a_drifted_classical_law_multiplies_its_transform_by_the_phase():
    a, b, g, cutoff = DRIFT["alpha"], DRIFT["b"], DRIFT["gamma_shift"], DRIFT["cutoff"]
    m, plain = build("classical", a, b, cutoff, g), build("classical", a, b, cutoff)
    for z in (0.05, 0.2, 0.4):
        want = cmath.exp(1j * g * z) * complex(FourierEvaluator(plain)(z))
        assert abs(complex(FourierEvaluator(m)(z)) - want) <= 1e-14


def test_drifted_laws_agree_with_the_two_generator_kernel_chain():
    a, b, g, cutoff = DRIFT["alpha"], DRIFT["b"], DRIFT["gamma_shift"], DRIFT["cutoff"]
    spec = SemigroupSpec.with_alphas(a)
    # classical: the graded exponential of i gamma z + i^alpha b z^alpha, each
    # coefficient times Gamma(tau + 1) / i^tau
    ft = graded_exp(GenSeries(spec, Variable.ASCENDING, Normalization.RAW,
                              {1.0: 1j * g, a: cmath.exp(0.5j * math.pi * a) * b}, cutoff))
    chain = {tau: c * math.gamma(tau + 1.0) * cmath.exp(-0.5j * math.pi * tau)
             for tau, c in ft.terms.items()}
    m = build("classical", a, b, cutoff, g)
    assert max(abs(m.moment(t) - e) / max(1.0, abs(e)) for t, e in chain.items()) <= 1e-13
    # free: the moments of the Voiculescu series -gamma + b z^(1-alpha)
    phi = GenSeries(spec, Variable.DESCENDING, Normalization.RAW, {1.0: -g, a: b}, cutoff,
                    exponent_shift=-1)
    assert worst_termwise_rel(build("free", a, b, cutoff, g), moments_from_voiculescu(phi)) \
        <= 1e-13


# --------------------------------------------------------------- interning

@pytest.mark.parametrize("kind", KINDS)
def test_a_law_built_twice_is_one_object(kind):
    b = symmetric_phase(1.5)
    m = build(kind, 1.5, b, 12.0)
    assert build(kind, Fraction(3, 2), b, 12) is m
    # another cutoff, weight or drift is another law
    assert build(kind, 1.5, b, 13.0) is not m
    assert build(kind, 1.5, 0.5 * b, 12.0) is not m
    if kind != "monotone":
        drifted = build(kind, 1.5, b, 12.0, gamma_shift=0.3)
        assert drifted is not m
        # a drifted classical or free law is a translate, and interned too
        assert (build(kind, 1.5, b, 12.0, gamma_shift=0.3) is drifted) == (kind != "boolean")


def test_a_classical_law_built_twice_shares_its_diagnosis():
    m, diagnosis = classical_stable(StableParams(0.6, symmetric_phase(0.6)), 12.0)
    again, also = classical_stable(StableParams(0.6, symmetric_phase(0.6)), 12.0)
    assert again is m and also is diagnosis


@pytest.mark.parametrize("kind, alpha, b, cutoff, other_alpha, other_b", [
    ("classical", 0.5, 1j, 12.0, Fraction(1, 2), 1j),
    ("classical", 0.5, -0.0, 12.0, 0.5, 0.0),
    # a negative real weight whose powers underflow takes them in logs, where
    # the sign of its zero imaginary part would flip ghost parts of 1e-149
    ("monotone", 0.01, complex(-0.7, -0.0), 20.0, 0.01, complex(-0.7, 0.0)),
])
def test_equal_arguments_build_bit_equal_laws(kind, alpha, b, cutoff, other_alpha, other_b):
    _stable_moments.cache_clear()
    m = build(kind, alpha, b, cutoff)
    _stable_moments.cache_clear()
    fresh = build(kind, other_alpha, other_b, cutoff)
    assert fresh is not m
    assert fresh.series.coefs.tobytes() == m.series.coefs.tobytes()
    assert build(kind, alpha, b, cutoff) is fresh


def test_a_cached_law_is_a_fresh_build_bit_for_bit_and_keeps_its_plans():
    params = StableParams(0.6, symmetric_phase(0.6))
    m, _ = classical_stable(params, 20.0)
    fourier = FourierEvaluator(m)
    S = stieltjes_from_moments(m)
    values = (fourier(1.3).value, evaluate(S, complex(5.0, -0.5)).value)
    exponent_grid.cache_clear()  # the law holds no grid
    again, _ = classical_stable(params, 20.0)
    assert again is m
    # its evaluators read the plans the first ones built
    assert FourierEvaluator(again).series.__dict__["_plan"] is fourier.series.__dict__["_plan"]
    assert stieltjes_from_moments(again).__dict__["_plan"] is S.__dict__["_plan"]
    _stable_moments.cache_clear()
    fresh, _ = classical_stable(params, 20.0)
    assert fresh is not m
    assert fresh.series.coefs.tobytes() == m.series.coefs.tobytes()
    assert values == (FourierEvaluator(fresh)(1.3).value,
                      evaluate(stieltjes_from_moments(fresh), complex(5.0, -0.5)).value)


@pytest.mark.parametrize("alpha, b", [(0.0, 1j), (2.5, 1j), (math.nan, 1j),
                                      (0.5, 1.0)])  # arg b = 0 is outside [pi/2, pi]
def test_an_invalid_law_raises_on_every_call(alpha, b):
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            classical_stable(StableParams(alpha, b), 12.0)
        if b == 1j:  # a monotone law has no phase window
            with pytest.raises(InvalidArgumentError):
                monotone_stable(alpha, b, 12.0)
        with pytest.raises(InvalidArgumentError):
            monotone_stable(0.5, b, -1.0)
