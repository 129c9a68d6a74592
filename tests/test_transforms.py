"""The five faces of a law (moments, Fourier, Stieltjes, reciprocal
Cauchy transform, subordination coefficients) and the four convolutions.

Closed-form anchors: the standard Cauchy law has moments i^n, Fourier
transform e^{-z} on z > 0, resolvent 1/(z - i), F-transform z - i, and
two-sided tail density 1/(pi x^2); the semicircle law has Catalan even
moments and resolvent (z - sqrt(z^2 - 4))/2.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import powertail.series as series_module
import powertail.stable as stable_module
import powertail.transforms as transforms_module

from helpers import (HALF, NAT, bernoulli_moments, cauchy_moments,
                     closed_form_moments, reference_tail_density, semicircle_moments,
                     symmetric_phase, worst_against, worst_termwise, worst_termwise_rel)
from powertail.errors import (LogTermObstructionError, NonConvergentReversionError,
                              OutsideValidityRegionError, ResourceGuardError)
from powertail.oracles import laplace_link_check
from powertail.semigroup import SemigroupSpec, density_constant
from powertail.series import (GenSeries, Normalization, Variable, compose_F,
                              divergence_guard_radius, evaluate, growth_fit,
                              identity_f_form, linear_combine, revert_F)
from powertail.stable import (StableKind, StableParams, boolean_stable, classical_stable,
                              free_stable, monotone_stable, monotone_stable_form,
                              stable_mixture)
from powertail.transforms import (FourierEvaluator, F_from_moments,
                                  MomentSeries, boolean_convolve,
                                  classical_convolve, delta_zero,
                                  free_convolve, moment_series,
                                  moments_from_F, moments_from_stieltjes,
                                  moments_from_tail, moments_from_voiculescu,
                                  monotone_convolve, stieltjes_from_moments,
                                  tail_from_moments,
                                  tail_real_to_complex, voiculescu_from_moments)


def random_half_series(seed, cutoff=3.0, scale=0.5):
    rng = np.random.default_rng(seed)
    terms = {0.5 * i: scale * complex(rng.standard_normal(),
                                      rng.standard_normal())
             for i in range(int(2 * cutoff) + 1)}
    terms[0.0] = 1.0
    return moment_series(HALF, terms, cutoff)


# ----------------------------------------------------------- Fourier side

def test_cauchy_transform_decays_exponentially():
    ft = FourierEvaluator(cauchy_moments())
    for z in (0.5, 1.0, 2.0):
        assert abs(complex(ft(z)) - math.exp(-z)) < 1e-10


def test_point_mass_transform_is_one():
    ft = FourierEvaluator(delta_zero(NAT))
    assert complex(ft(3.0)) == 1.0 + 0j


def test_transform_requires_positive_frequency():
    ft = FourierEvaluator(cauchy_moments())
    with pytest.raises(OutsideValidityRegionError):
        ft(0.0)
    with pytest.raises(OutsideValidityRegionError):
        ft(-1.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(3.0, math.nan)])
def test_transform_refuses_a_frequency_that_is_not_finite(z):
    ft = FourierEvaluator(cauchy_moments())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideValidityRegionError):
            ft(z)


def test_integer_phases_are_exact_quarter_turns():
    # the Cauchy law's moments i^k turn into (-1)^k with no ghost part, so
    # its transform e^-x is real to the last bit
    m = classical_stable(StableParams(1.0, 1j), 20.0)[0]
    fe = FourierEvaluator(m)
    for k, c in enumerate(fe.series.coefs.tolist()):
        assert c == (-1) ** k and math.copysign(1.0, c.imag) == 1.0, k
    for i in range(1, 41):
        assert fe(i / 40.0).value.imag == 0.0, i


def test_transform_multiplies_under_classical_convolution():
    a = random_half_series(11)
    b = random_half_series(12)
    conv = classical_convolve(a, b)
    z = 0.01  # deep inside the shared validity region
    lhs = complex(FourierEvaluator(conv)(z))
    rhs = complex(FourierEvaluator(a)(z)) * complex(FourierEvaluator(b)(z))
    assert abs(lhs - rhs) < 1e-6


def test_transform_tail_bound_dominates_known_error():
    # z large enough that series truncation, the thing tail_bound
    # measures, dwarfs float rounding in the partial sum
    ft = FourierEvaluator(cauchy_moments())
    res = ft(3.0)
    err = abs(res.value - math.exp(-3.0))
    assert err > 1e-14
    assert res.tail_bound >= err


# ---------------------------------------------------------- Stieltjes side

def test_cauchy_resolvent_closed_form():
    G = stieltjes_from_moments(cauchy_moments())
    for z in (-3j, -5.0 - 2.0j):
        assert abs(evaluate(G, z).value - 1.0 / (z - 1j)) < 1e-10


def test_semicircle_resolvent_surd_branch():
    G = stieltjes_from_moments(semicircle_moments())
    z = -5j
    # principal sqrt picks the branch with G(z) ~ 1/z down the axis
    want = (z + cmath.sqrt(z * z - 4.0)) / 2.0
    assert abs(want - 1.0 / z) < 0.1  # branch sanity
    assert abs(evaluate(G, z).value - want) < 1e-9


def test_resolvent_coefficients_are_the_moments():
    for m in (cauchy_moments(), semicircle_moments(), bernoulli_moments()):
        G = stieltjes_from_moments(m)
        assert G.terms == dict(m.terms)
        back = moments_from_stieltjes(G)
        assert back.terms == dict(m.terms)


def test_resolvent_guard_radius_tracks_growth():
    assert divergence_guard_radius(stieltjes_from_moments(cauchy_moments())) \
        == pytest.approx(1.25)


# ------------------------------------------- reciprocal Cauchy transform

def test_cauchy_f_transform_is_a_shift():
    F = F_from_moments(cauchy_moments())
    assert F.exponent_shift == -1
    assert abs(F.terms[0.0] - 1.0) < 1e-14
    assert abs(F.terms[1.0] + 1j) < 1e-14
    assert all(abs(v) < 1e-12 for k, v in F.terms.items() if k > 1.0)


def test_point_mass_f_transform_is_identity():
    F = F_from_moments(delta_zero(NAT))
    assert worst_termwise(F, identity_f_form(NAT, F.cutoff)) < 1e-14


def test_f_transform_roundtrip():
    for m in (cauchy_moments(12.0), semicircle_moments(12.0),
              bernoulli_moments(12.0)):
        back = moments_from_F(F_from_moments(m))
        assert worst_termwise(back, m) < 1e-12


# --------------------------------------------- subordination coefficients

def test_semicircle_subordination_is_a_single_term():
    phi = voiculescu_from_moments(semicircle_moments(12.0))
    live = {k: v for k, v in phi.terms.items() if abs(v) > 1e-12}
    assert set(live) == {2.0}
    assert abs(live[2.0] - 1.0) < 1e-12


def test_cauchy_subordination_is_constant():
    phi = voiculescu_from_moments(cauchy_moments(12.0))
    live = {k: v for k, v in phi.terms.items() if abs(v) > 1e-12}
    assert set(live) == {1.0}
    assert abs(live[1.0] - 1j) < 1e-12


def test_point_mass_subordination_vanishes():
    phi = voiculescu_from_moments(delta_zero(NAT))
    assert all(abs(v) < 1e-14 for v in phi.terms.values())


def test_subordination_roundtrip():
    m = free_stable(StableParams(alpha=1.5, b=symmetric_phase(1.5),
                                 kind=StableKind.FREE), cutoff=10.0)
    back = moments_from_voiculescu(voiculescu_from_moments(m))
    assert worst_termwise(back, m) < 1e-10


# -------------------------------------------------------------- tail side

def test_cauchy_tail_density_closed_form():
    tail = tail_from_moments(cauchy_moments())
    want = 1.0 / (26.0 * math.pi)
    assert abs(tail.density(5.0) - want) < 1e-10
    # the law is symmetric, so the two tails agree
    assert abs(tail.density(-5.0) - tail.density(5.0)) < 1e-14


def test_tail_density_guards_small_arguments():
    tail = tail_from_moments(cauchy_moments())
    # the model holds on |x| >= R = 2, past its fit's guard radius 1.25
    assert tail.x_min == pytest.approx(2.0)
    assert tail.R == 2.0
    with pytest.raises(OutsideValidityRegionError):
        tail.density(1.0)
    assert tail.density(2.0) == tail.density(-2.0) > 0.0
    for x in (math.nextafter(2.0, 0.0), -math.nextafter(2.0, 0.0)):
        with pytest.raises(OutsideValidityRegionError):
            tail.density(x)


def _refused_or_value(f, x):
    try:
        return f(x).hex()
    except OutsideValidityRegionError:
        return "refused"


@pytest.mark.parametrize("law", [
    lambda: tail_from_moments(cauchy_moments()),
    lambda: tail_from_moments(classical_stable(StableParams(0.6, -1.0))[0]),
    lambda: tail_from_moments(classical_stable(StableParams(1.5, symmetric_phase(1.5)))[0]),
    lambda: tail_from_moments(delta_zero(NAT)),
    lambda: stable_mixture([1.0 / (n + 1) for n in range(70)], 0.3)[1],
    lambda: stable_mixture([1.0 / (n + 1) for n in range(41)], 0.5)[1],
    lambda: stable_mixture([1.0] * 30, 0.7)[1],
    lambda: stable_mixture([1.0 / (n + 1) for n in range(23)], 0.9)[1],
], ids=["cauchy", "classical-0.6", "classical-1.5", "point-mass",
        "mixture-0.3", "mixture-0.5", "mixture-0.7", "mixture-0.9"])
def test_tail_model_reproduces_the_term_loop_bit_for_bit(law):
    tail = law()
    xs = [0.5, 1.0, tail.R, math.nextafter(tail.R, 0.0), tail.x_min,
          math.nextafter(tail.x_min, math.inf), 1.05 * tail.x_min, 2.4, 3.0, 4.0,
          7.3, 40.0, 1e3]
    for x in xs + [-x for x in xs]:
        assert _refused_or_value(tail.density, x) == \
            _refused_or_value(lambda u: reference_tail_density(tail, u), x)


def test_cauchy_tail_remainder_covers_its_truncation_error():
    # at cutoff 20 the tail stops at x^-20; the first dropped term is
    # x^-22 / pi, 2.5e-8 of the density at x = 2.4
    tail = tail_from_moments(cauchy_moments(20.0))
    for x in (2.4, 3.0, 4.0):
        want = 1.0 / (math.pi * (1.0 + x * x))
        for side in (x, -x):
            error = abs(tail.density(side) - want)
            assert 0.0 < error <= tail.remainder_estimate(side)


def test_point_mass_has_no_tail():
    tail = tail_from_moments(delta_zero(NAT))
    assert tail.density(1.0) == 0.0


def test_tail_roundtrip_on_a_mixture():
    m, tail = stable_mixture([1.0 / (n + 1) for n in range(30)], 0.7,
                             cutoff=14.0)
    back = moments_from_tail(tail)
    assert worst_termwise(back, m) < 1e-12


def test_real_tail_weights_lift_against_the_reflection():
    a = tail_real_to_complex({0.5: 1.0}, HALF)
    assert abs(a[0.5] - 1j) < 1e-12
    b = tail_real_to_complex({0.25: 1.0}, SemigroupSpec.with_alphas(0.25))
    assert abs(b[0.25] - (-1.0 + 1j)) < 1e-12


def test_integer_tail_weight_cannot_lift():
    with pytest.raises(LogTermObstructionError):
        tail_real_to_complex({2.0: 1.0}, NAT)


# ------------------------------------------------------------ convolutions

def test_cauchy_is_fixed_by_all_four_convolutions():
    m = cauchy_moments(16.0)
    want = moment_series(NAT, {float(n): (2j) ** n for n in range(17)}, 16.0)
    for conv in (classical_convolve, free_convolve, boolean_convolve,
                 monotone_convolve):
        assert worst_termwise(conv(m, m), want) < 1e-10


def test_semicircle_adds_freely():
    s = semicircle_moments(12.0)
    out = free_convolve(s, s)
    assert abs(out.moment(2.0) - 2.0) < 1e-12
    assert abs(out.moment(4.0) - 8.0) < 1e-12


def test_bernoulli_adds_boolean():
    b = bernoulli_moments(12.0)
    out = boolean_convolve(b, b)
    for n in range(1, 7):
        assert abs(out.moment(2.0 * float(n)) - 2.0 ** n) < 1e-12


def test_point_mass_is_neutral_for_every_kind():
    m = cauchy_moments(12.0)
    e = delta_zero(NAT, cutoff=12.0)
    for conv in (classical_convolve, free_convolve, boolean_convolve,
                 monotone_convolve):
        assert worst_termwise(conv(m, e), m) < 1e-12
        assert worst_termwise(conv(e, m), m) < 1e-12


def test_point_mass_lifts_to_the_semigroup_of_the_other_operand():
    # delta0 lives on the naturals, the stable law on naturals + 1/2
    m, _ = classical_stable(StableParams(0.5, -1.0), 6.0)
    e = delta_zero(NAT, cutoff=6.0)
    for conv in (classical_convolve, free_convolve, boolean_convolve,
                 monotone_convolve):
        for out in (conv(e, m), conv(m, e)):
            assert out.spec == m.spec
            assert worst_termwise(out, m) < 1e-14


def _bits(m):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in m.terms.items()}


@pytest.mark.parametrize("conv,converter", [
    (boolean_convolve, "F_from_moments"), (monotone_convolve, "F_from_moments"),
    (free_convolve, "F_from_moments")])
def test_self_convolution_converts_its_operand_once(monkeypatch, conv, converter):
    # the monotone convolution substitutes one moment vector into the
    # other and converts neither; the free one runs one set of rows where
    # its operands are one object and two sets where they are twins, bit
    # for bit alike
    m, _ = classical_stable(StableParams(0.5, -1.0), 12.0)
    twin = moment_series(m.spec, m.terms, m.cutoff)
    assert twin == m and twin is not m
    real, calls = getattr(transforms_module, converter), []
    once = 0 if conv is monotone_convolve else 1

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(transforms_module, converter, counted)
    same = conv(m, m)
    assert len(calls) == once
    assert _bits(same) == _bits(conv(m, twin))
    assert len(calls) == 3 * once


@given(hst.integers(min_value=0, max_value=200))
def test_three_convolutions_commute(seed):
    a = random_half_series(2 * seed + 1)
    b = random_half_series(2 * seed + 2)
    for conv in (classical_convolve, free_convolve, boolean_convolve):
        assert worst_termwise(conv(a, b), conv(b, a)) < 1e-12


def test_monotone_composition_order_matters():
    # first disagreement sits at the sixth moment: 17 against 16
    arc = monotone_stable(2.0, 2.0, cutoff=8.0)
    ber = bernoulli_moments(8.0)
    ab = monotone_convolve(arc, ber)
    ba = monotone_convolve(ber, arc)
    assert abs(ab.moment(2.0) - ba.moment(2.0)) < 1e-12
    assert abs(ab.moment(4.0) - ba.moment(4.0)) < 1e-12
    assert abs(ab.moment(6.0) - 17.0) < 1e-10
    assert abs(ba.moment(6.0) - 16.0) < 1e-10


@given(hst.integers(min_value=0, max_value=100))
def test_every_kind_is_associative(seed):
    a = random_half_series(3 * seed + 1)
    b = random_half_series(3 * seed + 2)
    c = random_half_series(3 * seed + 3)
    for conv in (classical_convolve, free_convolve, boolean_convolve,
                 monotone_convolve):
        lhs = conv(conv(a, b), c)
        rhs = conv(a, conv(b, c))
        assert worst_termwise(lhs, rhs) < 1e-10


def test_convolution_outputs_stay_inside_growth_envelope():
    """Any of the four products of two unit-mass series keeps its
    coefficients below the shared envelope built from the inputs'
    fitted growth and the lattice counting constant."""
    a = random_half_series(11)
    b = random_half_series(12)
    c = density_constant(HALF, 4)
    A = max(growth_fit(a.series).A, growth_fit(b.series).A)
    for conv in (classical_convolve, free_convolve, boolean_convolve,
                 monotone_convolve):
        out = conv(a, b)
        for k, v in out.terms.items():
            if abs(v) < 1e-300:
                continue
            bound = (k * math.log(max(A, 1e-12))
                     + math.floor(k) * math.log(c + 1.0)
                     + math.log(c * (math.floor(k) + 2.0)))
            assert math.log(abs(v)) <= bound + 1e-9


# ------------------------------------------- one series per public return


@pytest.fixture
def constructions(monkeypatch):
    """The count of GenSeries built, by the constructor or by adoption."""
    count = [0]
    init, adopt = GenSeries.__init__, GenSeries._adopt.__func__

    def counted_init(self, *args, **kw):
        count[0] += 1
        init(self, *args, **kw)

    def counted_adopt(cls, *args, **kw):
        count[0] += 1
        return adopt(cls, *args, **kw)

    monkeypatch.setattr(GenSeries, "__init__", counted_init)
    monkeypatch.setattr(GenSeries, "_adopt", classmethod(counted_adopt))
    return count


def test_each_public_call_builds_the_series_it_returns(constructions):
    def built(fn):
        constructions[0] = 0
        out = fn()
        return constructions[0], out

    # a law constructor passes vectors from its seed terms to its result
    assert built(lambda: classical_stable(StableParams(0.7, 1j, 0.3), 12.0))[0] == 1
    assert built(lambda: free_stable(StableParams(1.5, 0.5 + 0.2j, kind=StableKind.FREE),
                                     16.0))[0] == 1
    assert built(lambda: boolean_stable(
        StableParams(1.5, 0.5 + 0.2j, kind=StableKind.BOOLEAN), 16.0))[0] == 1
    assert built(lambda: monotone_stable(1.5, 0.5, 16.0))[0] == 1
    assert built(lambda: monotone_stable_form(1.5, 0.5, 16.0))[0] == 1
    n, m = built(lambda: classical_stable(StableParams(0.75, -1.0), 16.0)[0])
    assert n == 1
    n, F = built(lambda: F_from_moments(m))
    assert n == 1
    assert built(lambda: moments_from_F(F))[0] == 1
    assert built(lambda: voiculescu_from_moments(m))[0] == 1
    # a self-convolution converts its operand once and builds its result
    assert built(lambda: classical_convolve(m, m))[0] == 1
    for conv in (boolean_convolve, monotone_convolve, free_convolve):
        assert built(lambda: conv(m, m))[0] <= 2


def test_vector_paths_are_the_public_chains_bit_for_bit():
    # each convolution against the chain of public calls it stands for,
    # every coefficient by its bits but the monotone one's; each law
    # constructor against its closed form, and against the chain of kernels
    # it replaced within 5e-16 (measured: free 2.2e-16, monotone 7.3e-18,
    # Boolean bit for bit)
    alpha, b = 1.5, 0.5 + 0.2j
    spec = SemigroupSpec.with_alphas(alpha)
    desc_raw = (Variable.DESCENDING, Normalization.RAW)
    phi = GenSeries(spec, *desc_raw, {alpha: b}, 16.0, exponent_shift=-1)
    F = GenSeries(spec, *desc_raw, {0.0: 1.0, alpha: -b}, 16.0, exponent_shift=-1)
    form, _ = monotone_stable_form(alpha, b, 16.0)
    for kind, law, chain in (
            ("free", free_stable(StableParams(alpha, b, kind=StableKind.FREE), 16.0),
             moments_from_voiculescu(phi)),
            ("boolean", boolean_stable(StableParams(alpha, b, kind=StableKind.BOOLEAN), 16.0),
             moments_from_F(F)),
            ("monotone", monotone_stable(alpha, b, 16.0), moments_from_F(form))):
        assert worst_against(law, closed_form_moments(kind, alpha, b, law.series.grid())) \
            <= 1e-15
        assert worst_termwise_rel(law, chain) <= 5e-16
    m = free_stable(StableParams(alpha, b, kind=StableKind.FREE), 16.0)
    F = F_from_moments(m)
    sum_form = linear_combine(1.0, F, 1.0, F)
    assert _bits(boolean_convolve(m, m)) == _bits(moments_from_F(
        sum_form.with_terms(sum_form.coefs - (np.arange(len(F.coefs)) == 0))))
    # the monotone convolution substitutes moments, where the chain composes
    # forms between two reciprocals: measured 1.9e-16 apart
    assert worst_termwise_rel(monotone_convolve(m, m), moments_from_F(compose_F(F, F))) <= 1e-14
    # the free convolution subordinates: F(omega) with omega the inverse of
    # 2 id - F, which the chain composes and the route reads off (measured
    # 0 apart), and the law at 2b (measured 2.4e-16)
    omega = revert_F(linear_combine(2.0, identity_f_form(m.spec, 16.0), -1.0, F))
    free = free_convolve(m, m)
    assert worst_termwise_rel(free, moments_from_F(compose_F(F, omega))) <= 1e-14
    assert worst_against(free, closed_form_moments("free", alpha, 2.0 * b,
                                                   free.series.grid())) <= 1e-15


# ------------------------------------------------ free subordination pass


def _free_laws():
    """A free law on the multiples of 0.4 (21 moments), and one with drift
    on {0.7, 1} (174 exponents), which is not a progression."""
    return [free_stable(StableParams(0.4, symmetric_phase(0.4), kind=StableKind.FREE), 8.0),
            free_stable(StableParams(0.7, 1j, 0.3, kind=StableKind.FREE), 20.0)]


@pytest.mark.parametrize("which", [0, 1], ids=["progression", "pair-list"])
def test_free_convolution_refuses_past_the_cells_before_any_row(monkeypatch, which):
    m = _free_laws()[which]
    twin = moment_series(m.spec, m.terms, m.cutoff)
    F = F_from_moments(m)
    rows = np.count_nonzero(F.coefs) - 1
    sub = F.grid().generated(np.flatnonzero(F.coefs)[1:])[1]
    assert sub.progression() is (which == 0) and rows > 1
    done, real = [], series_module._euler_rows

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        done.append(args[3])
        return out

    monkeypatch.setattr(series_module, "_euler_rows", counted)
    # an operand's form is one row; the pass of one set or of two is refused
    monkeypatch.setattr(series_module, "MAX_KERNEL_CELLS", len(sub))
    for other, pass_rows in ((m, rows), (twin, 2 * rows)):
        with pytest.raises(ResourceGuardError, match="a %d-row series kernel" % pass_rows):
            free_convolve(m, other)
    assert done == ["reciprocal"] * 3


@pytest.mark.parametrize("which", [0, 1], ids=["progression", "pair-list"])
def test_a_pass_whose_residual_misses_is_refused(monkeypatch, which):
    # the residual sums each unknown's tail terms again from the finished
    # rows in the pass's order, so it reads 0; here the sums it recomputes
    # are made to miss by 1e-6 of themselves
    m = _free_laws()[which]
    twin = moment_series(m.spec, m.terms, m.cutoff)
    F = F_from_moments(m)
    real = series_module._group_sum
    monkeypatch.setattr(series_module, "_group_sum",
                        lambda keys, vals, n: real(keys, vals, n) * (1.0 + 1e-6))
    for run in (lambda: free_convolve(m, m), lambda: free_convolve(m, twin),
                lambda: revert_F(F)):
        with pytest.raises(NonConvergentReversionError, match="residual"):
            run()


def test_a_voiculescu_inverse_that_overflows_is_refused():
    phi = GenSeries(NAT, Variable.DESCENDING, Normalization.RAW, {2.0: 1e200}, 8.0,
                    exponent_shift=-1)
    # the inverse form overflows first: its check, not the moments', refuses
    # it, and numpy's warnings stay off while it overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceGuardError, match=re.escape("exponent 4 is (-inf+0j) in")):
            moments_from_voiculescu(phi)


def test_each_vector_is_checked_once_where_it_is_written(monkeypatch):
    real, checked = series_module._finite, []

    def counted(coefs, spec, cutoff):
        checked.append(len(coefs))
        return real(coefs, spec, cutoff)

    for module in (series_module, transforms_module, stable_module):
        monkeypatch.setattr(module, "_finite", counted)
    m = boolean_stable(StableParams(1.5, 0.5, kind=StableKind.BOOLEAN), 12.0)
    assert len(checked) == 1  # the closed-form moments; the series adopts them
    boolean_convolve(m, m)
    # the form, the sum of the two forms, and its reciprocal
    assert len(checked) == 4


def test_a_phased_series_past_double_range_is_refused():
    # no kernel writes the phased Fourier series: its writer checks it
    m = moment_series(HALF, {0.5: complex(1.5e308, 1.5e308)}, 4.0)
    with pytest.raises(ResourceGuardError, match=re.escape("exponent 0.5 is (1.99584")):
        FourierEvaluator(m)


def test_the_fourier_series_and_its_plan_are_built_once_per_moment_series(monkeypatch):
    real, plans = series_module._EvalPlan, []

    def counted(**fields):
        plans.append(real(**fields))
        return plans[-1]

    monkeypatch.setattr(series_module, "_EvalPlan", counted)
    m, _ = classical_stable(StableParams(0.6, -1.0), 20.0)
    fe = FourierEvaluator(m)
    A, c = fe.growth.A, density_constant(m.spec, 20)
    link = laplace_link_check(m, 2.5 * max(c * A, 0.4))
    assert FourierEvaluator(m).series is fe.series
    # one plan of the Fourier series (ascending powers); the link's other
    # plan is the resolvent's (descending)
    assert sorted(bool(np.all(p.powers >= 0)) for p in plans) == [False, True]
    assert link.discrepancy <= 1e-6
    # a second link and the caller's own resolvent reuse both
    assert laplace_link_check(m, 2.5 * max(c * A, 0.4)) == link
    S = stieltjes_from_moments(m)
    evaluate(S, complex(0.0, -3.0))
    assert stieltjes_from_moments(m) is S and len(plans) == 2
