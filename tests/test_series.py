"""Core series arithmetic: product, reciprocal, binomial powers,
composition and reversion of F-forms, pointwise evaluation with branch
control, and growth fitting.

Expected coefficient dictionaries below are hand computable: reciprocals
via the geometric series, binomial powers via the generalized binomial
theorem, compositions by direct substitution.
"""

import cmath
import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import powertail.semigroup as semigroup_module
import powertail.series as series_module
from helpers import (HALF, NAT, cauchy_moments, dot_bound, reference_euler_rows,
                     reference_evaluate, reference_progression_rows, reference_terms,
                     symmetric_phase, worst_termwise, worst_termwise_rel)
from powertail.errors import (DomainBranchError, IncompatibleSeriesError,
                              InvalidArgumentError, InvalidFormError, NormalizationError,
                              NotInvertibleError, ResourceGuardError,
                              ToleranceMergeWarning)
from powertail.semigroup import SemigroupSpec
from powertail.series import (Branch, DivergenceGuardWarning,
                              EvalResult, GenSeries, Normalization, Variable,
                              binomial_power, compose_F,
                              divergence_guard_radius, evaluate, f_form,
                              gamma_factor, growth_fit, identity_f_form,
                              is_f_form, linear_combine, product, reciprocal,
                              revert_F, scale, unit_series)
from powertail.stable import (StableKind, StableParams, boolean_stable, classical_stable,
                              free_stable, monotone_stable, monotone_stable_form)
from powertail.transforms import (F_from_moments, FourierEvaluator, classical_convolve,
                                  moment_series, moments_from_F, monotone_convolve,
                                  stieltjes_from_moments)


def desc(terms, cutoff=8.0, spec=NAT):
    return GenSeries(spec, Variable.DESCENDING, Normalization.RAW,
                     terms, cutoff)


def cauchy_resolvent(cutoff=20.0):
    return stieltjes_from_moments(cauchy_moments(cutoff))


# ---------------------------------------------------------------- product

def test_product_of_geometric_with_its_inverse_is_unit():
    f = desc({float(n): 1j ** n for n in range(9)})
    g = desc({0.0: 1.0, 1.0: -1j})
    assert worst_termwise(product(f, g),
                          unit_series(NAT, Variable.DESCENDING,
                                      Normalization.RAW, 8.0)) < 1e-14


def test_product_respects_gamma_weights():
    # in GAMMA normalization the constant term multiplies plainly
    a = GenSeries(HALF, Variable.ASCENDING, Normalization.GAMMA,
                  {0.0: 2.0, 0.5: 1.0, 1.0: -3.0}, 3.0)
    b = GenSeries(HALF, Variable.ASCENDING, Normalization.GAMMA,
                  {0.0: -1.5, 1.5: 1j}, 3.0)
    p = product(a, b)
    assert p.terms[0.0] == pytest.approx(-3.0)


def test_product_requires_matching_layout():
    f = desc({0.0: 1.0})
    g = GenSeries(HALF, Variable.DESCENDING, Normalization.RAW, {0.0: 1.0}, 8.0)
    with pytest.raises(IncompatibleSeriesError):
        product(f, g)


def test_linear_combine_requires_matching_shift():
    m = moment_series(NAT, {0.0: 1.0, 1.0: 1j}, 4.0)
    from powertail.transforms import F_from_moments
    with pytest.raises(IncompatibleSeriesError):
        linear_combine(1.0, stieltjes_from_moments(m), 1.0, F_from_moments(m))


def test_scale_multiplies_every_coefficient():
    f = desc({0.0: 1.0, 1.0: -2.0, 3.0: 1j})
    s = scale(f, -3j)
    assert s.terms == {0.0: -3j, 1.0: 6j, 3.0: 3.0}


# ------------------------------------------------------------- reciprocal

def test_reciprocal_of_alternating_geometric():
    f = desc({float(n): 1j ** n for n in range(9)})
    r = reciprocal(f)
    assert worst_termwise(r, desc({0.0: 1.0, 1.0: -1j})) < 1e-14


def test_reciprocal_expands_even_geometric():
    f = desc({0.0: 1.0, 2.0: -2.0}, cutoff=6.0)
    r = reciprocal(f)
    assert worst_termwise(r, desc({0.0: 1.0, 2.0: 2.0, 4.0: 4.0, 6.0: 8.0},
                                  cutoff=6.0)) < 1e-12


def test_reciprocal_roundtrip_is_unit():
    f = desc({0.0: 2.0 - 1j, 0.5: 0.7, 1.5: -0.3j, 2.0: 1.1}, cutoff=4.0,
             spec=HALF)
    p = product(f, reciprocal(f))
    assert worst_termwise(p, unit_series(HALF, Variable.DESCENDING,
                                         Normalization.RAW, 4.0)) < 1e-12


def test_reciprocal_needs_nonzero_constant_term():
    with pytest.raises(NotInvertibleError):
        reciprocal(desc({1.0: 1.0}))


def test_reciprocal_rejects_gamma_normalization():
    g = GenSeries(NAT, Variable.ASCENDING, Normalization.GAMMA, {0.0: 1.0}, 4.0)
    with pytest.raises(InvalidFormError):
        reciprocal(g)


# --------------------------------------------------------- binomial power

def test_binomial_square_root_of_even_quadratic():
    f = desc({0.0: 1.0, 2.0: -2.0}, cutoff=6.0)
    r = binomial_power(f, 0.5)
    assert worst_termwise(r, desc({0.0: 1.0, 2.0: -1.0, 4.0: -0.5, 6.0: -0.5},
                                  cutoff=6.0)) < 1e-12


def test_binomial_square_root_semicircle_surd():
    f = desc({0.0: 1.0, 2.0: -4.0}, cutoff=6.0)
    r = binomial_power(f, 0.5)
    assert worst_termwise(r, desc({0.0: 1.0, 2.0: -2.0, 4.0: -2.0, 6.0: -4.0},
                                  cutoff=6.0)) < 1e-12


def test_binomial_exponent_one_is_identity():
    f = desc({0.0: 1.0, 1.0: 0.3j, 2.5: -0.7}, spec=HALF)
    assert worst_termwise(binomial_power(f, 1.0), f) < 1e-14


def test_binomial_requires_unit_constant_term():
    with pytest.raises(NormalizationError):
        binomial_power(desc({0.0: 2.0, 1.0: 1.0}), 0.5)
    with pytest.raises(NormalizationError):
        binomial_power(desc({1.0: 1.0}), 0.5)


@given(hst.floats(min_value=-1.5, max_value=1.5),
       hst.floats(min_value=-1.5, max_value=1.5))
def test_binomial_exponents_add(b1, b2):
    f = desc({0.0: 1.0, 0.5: 0.2, 1.0: -0.25j, 2.0: 0.1}, cutoff=3.0,
             spec=HALF)
    lhs = binomial_power(f, b1 + b2)
    rhs = product(binomial_power(f, b1), binomial_power(f, b2))
    assert worst_termwise(lhs, rhs) < 1e-9


# ------------------------------------------------- composition, reversion

def test_compose_stacks_shifts():
    f = desc({0.0: 1.0, 1.0: -1j})  # the map z -> z - i in F-form
    f = f.with_terms(f.terms, exponent_shift=-1)
    c = compose_F(f, f)
    assert worst_termwise(c, f.with_terms({0.0: 1.0, 1.0: -2j})) < 1e-12


def test_compose_with_identity_is_neutral():
    F = identity_f_form(NAT, 8.0)
    g = desc({0.0: 1.0, 2.0: -0.5, 4.0: 0.25j})
    g = g.with_terms(g.terms, exponent_shift=-1)
    assert worst_termwise(compose_F(F, g), g) < 1e-12
    assert worst_termwise(compose_F(g, F), g) < 1e-12


def test_compose_self_of_simple_surd_map():
    # F(z) = z - 1/z composed with itself, coefficients by hand
    F = desc({0.0: 1.0, 2.0: -1.0}).with_terms({0.0: 1.0, 2.0: -1.0},
                                               exponent_shift=-1)
    c = compose_F(F, F)
    want = F.with_terms({0.0: 1.0, 2.0: -2.0, 4.0: -1.0, 6.0: -1.0, 8.0: -1.0})
    assert worst_termwise(c, want) < 1e-12


def test_revert_linear_shift():
    F = identity_f_form(NAT, 8.0).with_terms({0.0: 1.0, 1.0: -1j})
    inv = revert_F(F)
    assert worst_termwise(inv, F.with_terms({0.0: 1.0, 1.0: 1j})) < 1e-12


def test_revert_of_surd_map_has_exact_coefficients():
    # z - 1/z inverts to (z + sqrt(z^2 + 4)) / 2 = z (1 + w^2 - w^4 + 2 w^6 - ...)
    F = identity_f_form(NAT, 6.0).with_terms({0.0: 1.0, 2.0: -1.0})
    got = revert_F(F)
    assert set(got.terms) == {0.0, 2.0, 4.0, 6.0}
    assert worst_termwise(got, F.with_terms({0.0: 1.0, 2.0: 1.0, 4.0: -1.0, 6.0: 2.0})) < 1e-12


def test_revert_roundtrip_through_compose():
    F = identity_f_form(NAT, 9.0).with_terms(
        {0.0: 1.0, 2.0: -1.0, 4.0: -1.0, 6.0: -2.0, 8.0: -5.0})
    back = compose_F(F, revert_F(F))
    assert worst_termwise(back, identity_f_form(NAT, 9.0)) < 1e-10


def test_revert_rejects_non_f_form():
    with pytest.raises(InvalidFormError):
        revert_F(cauchy_resolvent(8.0))
    assert not is_f_form(cauchy_resolvent(8.0))
    assert is_f_form(identity_f_form(NAT, 4.0))


def test_f_form_builder_prepends_unit():
    F = f_form(NAT, {2.0: -1.0}, cutoff=6.0)
    assert F.exponent_shift == -1
    assert F.terms[0.0] == 1.0 + 0j and F.terms[2.0] == -1.0 + 0j


# ------------------------------------------------- kernel guards, grids

# 3 alpha lies within the merge tolerance of 1, so the grid merges them
MERGED = SemigroupSpec.with_alphas(1.0 / 3.0 + 1e-10)


def merged_series(cutoff=8.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceMergeWarning)
        alpha = MERGED.fractional_generators[0]
        return desc({0.0: 1.0, alpha: 0.4 - 0.2j, 1.0: -0.3}, cutoff, MERGED)


def test_opposite_powers_cancel_on_a_tolerance_merged_grid():
    # the Euler operator is additive there only to the merge tolerance
    f = merged_series()
    one = unit_series(MERGED, Variable.DESCENDING, Normalization.RAW, 8.0)
    p = product(binomial_power(f, 0.7), binomial_power(f, -0.7))
    assert worst_termwise(p, one) < 1e-9


def test_reciprocal_is_exact_on_a_tolerance_merged_grid():
    f = merged_series()
    one = unit_series(MERGED, Variable.DESCENDING, Normalization.RAW, 8.0)
    assert worst_termwise(product(f, reciprocal(f)), one) < 1e-15


def test_kernel_guard_refuses_before_building_pairs(monkeypatch):
    monkeypatch.setattr(series_module, "MAX_KERNEL_CELLS", 100)
    F = f_form(HALF, {float(k) / 2: 0.1 for k in range(1, 12)}, cutoff=5.75)
    with pytest.raises(ResourceGuardError, match="cells"):
        revert_F(F)
    with pytest.raises(ResourceGuardError, match="cells"):
        compose_F(F, F)
    assert F.grid()._pairs is None


def test_pair_guard_refuses_a_progression_before_any_work(monkeypatch):
    # the progression kernel builds no pair list, but its work is the pairs'
    spec = SemigroupSpec.with_alphas(0.4127)
    f = desc({0.0: 1.0, 0.4127: 0.5}, 7.3, spec)
    sub = f.grid().generated(np.flatnonzero(f.coefs))[1]
    assert sub.progression()
    pairs = len(sub) * (len(sub) + 1) // 2
    monkeypatch.setattr(semigroup_module, "MAX_PAIRS", pairs - 1)
    monkeypatch.setattr(series_module, "_euler_weights", None)  # not to be reached
    with pytest.raises(ResourceGuardError, match="%d exponent pairs" % pairs):
        reciprocal(f)
    assert sub._pairs is None


def test_reversion_sets_the_tail_after_every_row_drops_out(monkeypatch):
    # the smallest shift is 2, so from two coefficients before the last no
    # row is active, and the last two coefficients of the inverse are still
    # to be set
    spec = SemigroupSpec.with_alphas(0.4)
    F = f_form(spec, {0.8: symmetric_phase(0.4), 1.2: 0.3}, 12.0)
    assert F.grid().generated(np.flatnonzero(F.coefs))[1].progression()
    inv = revert_F(F)
    assert worst_termwise(compose_F(F, inv), identity_f_form(spec, 12.0)) < 1e-13
    monkeypatch.setattr(series_module.ExponentGrid, "generated", _whole_grid)
    assert worst_termwise_rel(inv, revert_F(F)) <= 1e-14


def test_chunked_one_row_factors_give_identical_coefficients(monkeypatch):
    # _CHUNK_CELLS sets how many coefficients gather their factors at once,
    # on a progression (the multiples of 1/2) and off one (2/5 and 1)
    F = f_form(HALF, {0.5: 0.3 - 0.1j, 1.0: 0.2, 2.5: -0.05j}, cutoff=9.0)
    G = f_form(SemigroupSpec.with_alphas(0.4), {0.4: 0.3 - 0.1j, 1.0: 0.2}, cutoff=9.0)
    assert F.grid().progression() and not G.grid().progression()
    runs = []
    for cells in (series_module._CHUNK_CELLS, 1000, 3):
        monkeypatch.setattr(series_module, "_CHUNK_CELLS", cells)
        run = []
        for H in (F, G):
            h = H.with_terms(H.terms, exponent_shift=0)
            inv = revert_F(H)
            run += [inv.terms, compose_F(inv, H).terms, reciprocal(h).terms,
                    binomial_power(h, -1.5 + 0.5j).terms]
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]


# the kernel-oracle lattices: 2/5, and the near-resonant 5001/10000 (about
# 600 exponents at cutoff 24)
KERNEL_LATTICES = [pytest.param(0.4, 48.0, id="0.4-48"),
                   pytest.param(0.5001, 24.0, id="0.5001-24")]


def _kernel_inputs(alpha, cutoff, tail=None):
    """The oracle test form F = z(1 + b w^alpha + 0.3 w), or one with the
    given tail, on the grid its kernels run on: its tail h as a vector
    there, and the rows, shifts and coefficients of its terms."""
    F = f_form(SemigroupSpec.with_alphas(alpha),
               tail or {alpha: symmetric_phase(alpha), 1.0: 0.3}, cutoff)
    # the first row is the unit at exponent 0, not a term of the tail
    index, coef, betas = (a[1:] for a in series_module._outer_rows(F.coefs, F.grid()))
    idx, grid = F.grid().generated(index)
    h = F.coefs[idx]
    h[0] = 0.0
    return grid, h, np.searchsorted(idx, index), coef, betas


def _progression_inputs(alpha, cutoff):
    """Kernel inputs on the multiples of alpha, whose smallest shift is 2."""
    return _kernel_inputs(alpha, cutoff, {2 * alpha: symmetric_phase(alpha),
                                          3 * alpha: 0.3, 7 * alpha: -0.05j})


def _kernel_cases(grid, h, index, coef, betas):
    """(args, kwargs) of every way the library runs the kernel, with one
    row and with several, plus a tail with no zero coefficient."""
    full = h + np.where(np.arange(len(grid)) > 0, 0.01j / (1.0 + grid.values), 0.0)
    return [((h, np.ones(1), "reciprocal"), {}),
            ((full, np.ones(1), "reciprocal"), {}),
            ((h, np.array([-0.7 + 0j]), "power"), {}),
            ((full, np.array([0.3 + 0.2j]), "power"), {}),
            ((h, np.ones(1), "exp"), {}),
            ((h, np.array([2.5, -0.7, 0.5j]), "power"), {}),
            ((full, np.array([2.5, -0.7, 0.5j]), "power"), {}),
            ((h, betas, "power"), {"shifts": index}),
            ((h, betas[:1], "power"), {"shifts": index[:1]}),
            ((np.zeros(len(grid), dtype=np.complex128), betas, "power"),
             {"shifts": index, "tail_coef": -coef}),
            ((np.zeros(len(grid), dtype=np.complex128), betas[:1], "power"),
             {"shifts": index[:1], "tail_coef": coef[:1]}),
            # two sets, a free convolution's: the second form has two terms
            ((np.zeros((2, len(grid)), dtype=np.complex128), np.r_[betas, betas[:2]],
              "power"), {"shifts": np.r_[index, index[:2]],
                         "tail_coef": np.r_[coef, 0.5j * coef[:2]], "split": len(index)}),
            ((np.zeros((2, len(grid)), dtype=np.complex128), np.r_[betas[:2], betas],
              "power"), {"shifts": np.r_[index[:2], index],
                         "tail_coef": np.r_[coef[:2] - 0.2, coef], "split": 2})]


def _assert_kernel_is(reference, grid, inputs):
    for (h, betas, kind), kw in _kernel_cases(grid, *inputs):
        h_ref = h.copy()
        got = series_module._euler_rows(grid, h, betas, kind, **kw)
        want = reference(h_ref, betas, kind, **kw)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (kind, kw.keys())
        assert h.tobytes() == h_ref.tobytes()


@pytest.mark.parametrize("cells", ["default", 1000, 3])
@pytest.mark.parametrize("alpha,cutoff", KERNEL_LATTICES)
def test_euler_kernel_is_the_pair_list_reference_bit_for_bit(monkeypatch, alpha, cutoff,
                                                             cells):
    # _CHUNK_CELLS sets how many coefficients gather their factors at once
    # when h is known: 1000 splits them into several slabs, 3 into one
    # each.  Bit for bit holds because both sum each coefficient's pairs in
    # pair-list order and multiply p by the factor in that order (numpy's
    # complex product is not commutative to the bit where it fuses
    # multiply-adds).
    if cells != "default":
        monkeypatch.setattr(series_module, "_CHUNK_CELLS", cells)
    grid, *inputs = _kernel_inputs(alpha, cutoff)
    assert not grid.progression()
    _assert_kernel_is(lambda *a, **kw: reference_euler_rows(grid, *a, **kw), grid, inputs)


@pytest.mark.parametrize("cells", ["default", 1000, 3])
@pytest.mark.parametrize("alpha,cutoff", KERNEL_LATTICES)
def test_progression_kernel_is_the_coefficient_loop_bit_for_bit(monkeypatch, alpha,
                                                                cutoff, cells):
    # _CHUNK_CELLS sets how many coefficients gather their one-row factors
    # at once: 1000 splits them into several slabs, 3 into one each
    if cells != "default":
        monkeypatch.setattr(series_module, "_CHUNK_CELLS", cells)
    grid, *inputs = _progression_inputs(alpha, cutoff)
    assert grid.progression() and grid.values[1] == alpha
    _assert_kernel_is(reference_progression_rows, grid, inputs)


@pytest.mark.parametrize("alpha,cutoff", KERNEL_LATTICES)
def test_two_equal_row_sets_are_one_set_bit_for_bit(alpha, cutoff):
    # a free self-convolution runs one set of rows where its operands are
    # one object and two where they are equal; each set sums its own block,
    # so a step where one row is left sums alike in both (numpy sums one
    # column pairwise and several in sequence)
    for grid, _, index, coef, betas in (_kernel_inputs(alpha, cutoff),
                                        _progression_inputs(alpha, cutoff)):
        one = np.zeros(len(grid), dtype=np.complex128)
        P1 = series_module._euler_rows(grid, one, betas, "power", shifts=index,
                                       tail_coef=coef)
        two = np.zeros((2, len(grid)), dtype=np.complex128)
        P2 = series_module._euler_rows(grid, two, np.r_[betas, betas], "power",
                                       shifts=np.r_[index, index],
                                       tail_coef=np.r_[coef, coef], split=len(index))
        assert one.tobytes() == two[0].tobytes() == two[1].tobytes()
        assert P2.tobytes() == np.r_[P1, P1].tobytes()


# the grids of the sub-semigroup tests: alpha N is a proper part of each
ALPHA_GRIDS = [(0.4, 12.0), (0.4123, 10.0), (0.5001, 8.0), (0.7, 12.0), (0.3, 9.0),
               (math.pi / 8, 8.0), (math.sqrt(2.0) / 2, 24.0)]


def _alpha_terms(rng, alpha, cutoff, lowest=1):
    """Random coefficients at lowest * alpha and a random part of the
    larger multiples of alpha up to the cutoff."""
    ks = [lowest] + [k for k in range(lowest + 1, int(cutoff / alpha) + 1)
                     if rng.random() < 0.6]
    return {k * alpha: complex(*rng.normal(size=2)) * 0.3 for k in ks}


def _off_alpha_n(grid, alpha):
    """Mask of the grid exponents that are not multiples of alpha."""
    off = np.ones(len(grid), dtype=bool)
    off[[grid.index_of(k * alpha) for k in range(int(grid.cutoff / alpha) + 1)]] = False
    return off


@pytest.mark.parametrize("alpha,cutoff", ALPHA_GRIDS)
def test_alpha_only_kernels_are_the_whole_grid_loop_bit_for_bit(alpha, cutoff):
    # alpha is in every support, so the kernels run on alpha N, a
    # progression: bit for bit the coefficient loop there, and within
    # roundoff of the pair-list reference on the whole grid, whose sums
    # run in another order and where no sum has a term that vanishes
    rng = np.random.default_rng(int(alpha * 1e4))
    spec = SemigroupSpec.with_alphas(alpha)
    for _ in range(5):
        tail = desc(_alpha_terms(rng, alpha, cutoff), cutoff, spec)
        grid, h, unit = tail.grid(), tail.coefs, np.arange(len(tail.coefs)) == 0
        idx, sub = grid.generated(np.flatnonzero(h))
        assert sub.progression() and len(sub) < len(grid)
        c0, beta = (complex(*rng.normal(size=2)) for _ in range(2))
        f = tail.with_terms(c0 * (h + unit))
        hr = f.coefs / c0
        hr[0] = 0.0
        cases = [(reciprocal(f), hr, np.ones(1), "reciprocal", c0),
                 (binomial_power(tail.with_terms(h + unit), beta), h, np.array([beta]),
                  "power", 1.0),
                 (series_module.graded_exp(tail), h, np.ones(1), "exp", 1.0)]
        for got, hk, betas, kind, c in cases:
            want = series_module._full(idx, reference_progression_rows(hk[idx], betas,
                                                                       kind)[0], len(grid))
            assert got.coefs.tobytes() == tail.with_terms(want / c).coefs.tobytes()
            whole = reference_euler_rows(grid, hk.copy(), betas, kind)[0] / c
            assert worst_termwise_rel(got, tail.with_terms(whole)) <= 1e-14, kind
            assert not got.coefs[_off_alpha_n(grid, alpha)].any()


def _whole_grid(grid, support):
    return np.arange(len(grid)), grid


@pytest.mark.parametrize("alpha,cutoff", ALPHA_GRIDS)
def test_alpha_only_products_and_forms_match_the_whole_grid(monkeypatch, alpha, cutoff):
    rng = np.random.default_rng(int(alpha * 1e4) + 1)
    spec = SemigroupSpec.with_alphas(alpha)
    # supports from 2 alpha up may generate a semigroup with gaps
    a, b = ({0.0: 1.0, **_alpha_terms(rng, alpha, cutoff, lowest)} for lowest in (1, 2))
    F, G = (f_form(spec, _alpha_terms(rng, alpha, cutoff, lowest), cutoff)
            for lowest in (2, 1))

    def results():
        asc = [GenSeries(spec, Variable.ASCENDING, Normalization.GAMMA, t, cutoff)
               for t in (a, b)]
        return [product(desc(a, cutoff, spec), desc(b, cutoff, spec)), product(*asc),
                revert_F(F), compose_F(F, G)]

    sub = results()
    # the identity's terms cancel from about |inverse| in size, so it is
    # checked against the identity, not against the whole-grid run
    assert worst_termwise(compose_F(F, sub[2]), identity_f_form(spec, cutoff)) < 1e-12
    monkeypatch.setattr(series_module.ExponentGrid, "generated", _whole_grid)
    whole = results()
    off = _off_alpha_n(F.grid(), alpha)
    for got, want in zip(sub, whole):
        assert worst_termwise_rel(got, want) <= 1e-14
        assert not got.coefs[off].any()


def test_kernel_guard_counts_the_sub_grid(monkeypatch):
    spec = SemigroupSpec.with_alphas(0.4123)
    f = desc({0.0: 1.0, 0.4123: 0.5}, 10.0, spec)
    idx, sub = f.grid().generated(np.flatnonzero(f.coefs))
    assert len(sub) < len(f.grid())
    monkeypatch.setattr(series_module, "MAX_KERNEL_CELLS", len(sub))
    binomial_power(f, 0.5)
    with pytest.raises(ResourceGuardError, match="cells"):
        binomial_power(f.with_terms({0.0: 1.0, 0.4123: 0.5, 1.0: 0.1}), 0.5)


# ------------------------------------------------ monotone substitution


def _no_progression(monkeypatch):
    monkeypatch.setattr(series_module.ExponentGrid, "progression", lambda self: False)


@pytest.mark.parametrize("alpha", [0.4, 1.5])
def test_horner_substitution_is_the_rows_on_a_progression(monkeypatch, alpha):
    # drift-free laws live on the multiples of alpha, where the moments
    # substitute by Horner's rule; the rows read the same sums (measured
    # 5.9e-15 apart, moments up to 7e26 included)
    b = symmetric_phase(alpha)
    laws = [monotone_stable(alpha, b, 32.0),
            boolean_stable(StableParams(alpha, b, kind=StableKind.BOOLEAN), 32.0),
            classical_stable(StableParams(alpha, b), 32.0)[0]]
    assert laws[0].series.grid().generated([1])[1].progression()
    horner = [monotone_convolve(m1, m2).series.coefs for m1 in laws for m2 in laws]
    _no_progression(monkeypatch)
    rows = [monotone_convolve(m1, m2).series.coefs for m1 in laws for m2 in laws]
    for got, want in zip(horner, rows):
        on = want != 0
        assert np.array_equal(got != 0, on)
        assert np.max(np.abs(got - want)[on] / np.abs(want[on])) <= 2e-14


# the drifted laws of the CI argv --alpha 0.7 --b 1j --gamma0 0.3: on the
# grid of 0.7 and 1, no progression
DRIFTED = (0.7, 1j, 0.3, 20.0)


def _drifted_laws():
    alpha, b, g, cutoff = DRIFTED
    return (classical_stable(StableParams(alpha, b, g), cutoff)[0],
            free_stable(StableParams(alpha, b, g, kind=StableKind.FREE), cutoff))


def test_moment_substitution_off_a_progression_is_the_form_chain():
    # the chain loses digits in its reciprocals: against a 40-digit run of
    # the substitution, the classical self-convolution's chain is off by
    # 3.2e-13 and the moment route by 1.6e-15
    for m in _drifted_laws():
        assert not m.series.grid().progression()
        F = F_from_moments(m)
        assert worst_termwise_rel(monotone_convolve(m, m),
                                  moments_from_F(compose_F(F, F))) <= 1e-12


def test_moment_substitution_into_a_point_mass_translates():
    # F_m(F_delta(z)) = F_m(z - c): m convolved with the point mass at c is m
    # translated by c, a GAMMA product
    for m in _drifted_laws():
        at = moment_series(m.spec, {float(n): 0.3 ** n for n in range(21)}, DRIFTED[3])
        assert worst_termwise_rel(monotone_convolve(m, at), classical_convolve(m, at)) <= 1e-14


def test_monotone_convolution_refuses_past_the_cells_before_any_work(monkeypatch):
    done = []
    real = series_module._euler_rows

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        done.append(args[3])
        return out

    monkeypatch.setattr(series_module, "_euler_rows", counted)
    monkeypatch.setattr(series_module, "MAX_KERNEL_CELLS", 100)
    b = symmetric_phase(0.4)
    on = monotone_stable(0.4, b, 8.0)  # 21 moments on the multiples of 0.4
    off = _drifted_laws()[0]
    for m in (on, off):
        with pytest.raises(ResourceGuardError, match="cells"):
            monotone_convolve(m, m)
    assert done == []


# -------------------------------------------------------------- evaluate

def test_evaluate_resolvent_of_cauchy_at_negative_imaginary():
    res = evaluate(cauchy_resolvent(), -3j)
    exact = 1.0 / (-3j - 1j)
    assert abs(res.value - exact) < 1e-10
    # the reported tail bound must dominate the actual truncation error
    assert res.tail_bound >= abs(res.value - exact)


def test_evaluate_constant_series_is_exact():
    c = desc({0.0: 3.5})
    res = evaluate(c, 2.0 + 1j)
    assert res.value == 3.5 + 0j
    assert res.tail_bound == 0.0


def test_evaluate_principal_branch_of_square_root():
    h = GenSeries(HALF, Variable.ASCENDING, Normalization.RAW, {0.5: 1.0}, 3.0)
    got = evaluate(h, -1j).value
    assert abs(got - cmath.exp(-0.25j * cmath.pi)) < 1e-14


def test_evaluate_monotone_branch_of_square_root():
    # the monotone branch takes arguments from (-2 pi, 0)
    h = GenSeries(HALF, Variable.ASCENDING, Normalization.RAW, {0.5: 1.0}, 3.0)
    got = evaluate(h, 1j, branch=Branch.MONOTONE).value
    assert abs(got - cmath.exp(-0.75j * cmath.pi)) < 1e-14


def test_evaluate_rejects_points_on_the_cut():
    f = desc({0.0: 1.0, 1.0: 1.0}, cutoff=6.0)
    with pytest.raises(DomainBranchError):
        evaluate(f, -1.0)
    with pytest.raises(DomainBranchError):
        evaluate(f, 1.0, branch=Branch.MONOTONE)


def test_evaluate_warns_inside_divergence_region():
    f = desc({0.0: 1.0, 1.0: 1.0}, cutoff=6.0)
    with pytest.warns(DivergenceGuardWarning):
        evaluate(f, 0.05)


def test_evaluate_gamma_matches_weighted_raw():
    terms = {0.0: 1.0, 0.5: 2.0, 1.0: -1j, 2.5: 0.3}
    g = GenSeries(HALF, Variable.ASCENDING, Normalization.GAMMA, terms, 3.0)
    r = GenSeries(HALF, Variable.ASCENDING, Normalization.RAW,
                  {k: v / gamma_factor(k + 1.0) for k, v in terms.items()}, 3.0)
    z = 0.3 + 0.2j
    assert abs(evaluate(g, z).value - evaluate(r, z).value) < 1e-14


@given(hst.floats(min_value=1.5, max_value=4.0),
       hst.floats(min_value=0.5, max_value=3.0))
def test_evaluate_commutes_with_conjugation(re, im):
    terms = {0.0: 1.0 + 0.5j, 1.0: -0.3j, 1.5: 0.2 - 0.1j}
    f = GenSeries(HALF, Variable.DESCENDING, Normalization.RAW, terms, 4.0)
    g = f.with_terms({k: v.conjugate() for k, v in terms.items()})
    z = complex(re, im)
    lhs = evaluate(g, z.conjugate()).value
    rhs = evaluate(f, z).value.conjugate()
    assert abs(lhs - rhs) < 1e-12


def test_evaluate_is_linear_in_the_series():
    f = desc({0.0: 1.0, 1.0: -1j, 2.0: 0.5})
    g = desc({0.0: 0.3, 2.0: 1j})
    comb = linear_combine(2.0, f, -1.5j, g)
    z = 3.0 + 2.0j
    want = 2.0 * evaluate(f, z).value - 1.5j * evaluate(g, z).value
    assert abs(evaluate(comb, z).value - want) < 1e-12


def _bits(res):
    v = complex(res.value)
    return v.real.hex(), v.imag.hex(), float(res.tail_bound).hex()


def _points(n, lo, hi, im):
    return [complex(lo + (hi - lo) * (i + 0.37) / n, im) for i in range(n)]


def _stable_fourier(alpha):
    m = classical_stable(StableParams(alpha, symmetric_phase(alpha)), 20.0)[0]
    return FourierEvaluator(m).series


# name: (series, points, branch), one per layout evaluate handles
_PLAN_CASES = {
    "fourier": (FourierEvaluator(cauchy_moments(20.0)).series,
                [0.02, 0.3, 0.7, 1.0, 1.9, 5.0], Branch.PRINCIPAL),
    # real z, where each power has imaginary part +-0
    **{"stable-fourier-%g" % a: (_stable_fourier(a), _points(30, 0.01, 4.0, 0.0),
                                 Branch.PRINCIPAL) for a in (0.5, 0.75, 1.5)},
    "shift+1-real": (cauchy_resolvent(), _points(30, 0.5, 12.0, 0.0)
                     + [complex(3.0, -0.0), complex(0.7, -0.0)], Branch.PRINCIPAL),
    "half-gamma": (GenSeries(HALF, Variable.ASCENDING, Normalization.GAMMA,
                             {0.5 * i: complex(math.cos(i), math.sin(2 * i)) for i in range(41)},
                             20.0),
                   _points(20, 0.01, 6.0, 0.0) + _points(20, -3.0, 3.0, 0.7), Branch.PRINCIPAL),
    # Gamma(k + 1) overflows from k = 171 on, where each term must read 0
    "naturals-200": (GenSeries(NAT, Variable.ASCENDING, Normalization.GAMMA,
                               {float(k): 1.0 for k in range(201)}, 200.0),
                     [0.5, 2.0, 7.5 + 1j, -3.0 - 2j], Branch.PRINCIPAL),
    "shift+1": (cauchy_resolvent(), _points(40, -6.0, 6.0, -0.5) + [-3j, 0.5 + 0.1j],
                Branch.PRINCIPAL),
    "shift-1": (f_form(HALF, {0.5: 0.3 - 0.2j, 1.0: 1j, 2.5: -0.1}, 8.0),
                _points(40, -6.0, 6.0, 1.5) + [4.0, 0.2 - 0.2j], Branch.PRINCIPAL),
    "monotone": (monotone_stable_form(0.7, 0.5, 16.0)[0],
                 _points(40, -6.0, 6.0, 0.8) + _points(20, -6.0, 6.0, -0.8), Branch.MONOTONE),
    # no term needs the log, so no DomainBranchError on the cut
    "constant-on-cut": (desc({0.0: 2.5 - 1j}), [-1.0, 0.0, 3.0 - 1j], Branch.PRINCIPAL),
    "empty": (desc({}), [-1.0, 0.0, 2.0 + 1j], Branch.PRINCIPAL),
    # z^-8 underflows to (-0.0, +0.0) at the first point, where the loop's
    # sum from 0j reads +0.0, and is subnormal at the second; to 0.0 at the third
    "underflow": (desc({8.0: 1.0}), [1e200 * cmath.exp(-3j * math.pi / 32),
                                     math.exp(92.5) * cmath.exp(0.3j), 1e200],
                  Branch.PRINCIPAL),
}


@pytest.mark.parametrize("case", list(_PLAN_CASES))
def test_evaluate_is_the_term_loop_to_a_dot_products_rounding(case):
    f, points, branch = _PLAN_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceGuardWarning)
        for z in points:
            want = reference_evaluate(f, z, branch)
            got = evaluate(f, z, branch)
            if len(f.terms) <= 1:  # no sum to round: the loop's value to the bit
                assert _bits(got) == _bits(want), z
            else:
                assert abs(got.value - want.value) <= dot_bound(f, z, branch), z
                assert float(got.tail_bound).hex() == float(want.tail_bound).hex(), z


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(3.0, math.nan),
                               complex(math.inf, -1.0)])
def test_evaluate_refuses_a_point_that_is_not_finite(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (cauchy_resolvent(), desc({})):
            with pytest.raises(InvalidArgumentError):
                evaluate(f, z)


def _positive_stable_resolvent(alpha):
    b = cmath.exp(1j * math.pi * (1.0 - alpha))
    return stieltjes_from_moments(classical_stable(StableParams(alpha, b), 20.0)[0])


# the series the eval-sweep benchmark reads, with 50 real and 50 complex
# points each where it reads them
_SWEEP_CASES = {
    **{"positive-stable-%g" % a: (_positive_stable_resolvent(a),
                                  _points(50, 4.0, 14.0, 0.0) + _points(50, 4.0, 14.0, -0.5))
       for a in (0.5, 0.6, 0.75)},
    "fourier-0.6": (FourierEvaluator(classical_stable(
        StableParams(0.6, cmath.exp(0.7j * math.pi)), 20.0)[0]).series,
        _points(50, 0.02, 2.02, 0.0) + _points(50, 0.02, 2.02, 0.3)),
    "cauchy": (FourierEvaluator(classical_stable(StableParams(1.0, 1j), 20.0)[0]).series,
               _points(50, 0.05, 3.05, 0.0) + _points(50, 0.05, 3.05, -0.3)),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_evaluate_is_near_the_exact_sum_of_the_loops_terms(case):
    mpmath = pytest.importorskip("mpmath")
    f, points = _SWEEP_CASES[case]
    for z in points:
        terms = reference_terms(f, z)
        with mpmath.workdps(50):
            exact = complex(mpmath.fsum(mpmath.mpc(t) for t in terms))
        assert abs(evaluate(f, z).value - exact) <= dot_bound(f, z, scale=4.0), z


@pytest.mark.parametrize("case", [c for c in _SWEEP_CASES if c.startswith(("fourier", "cauchy"))])
def test_evaluate_many_is_evaluate_to_a_dot_products_rounding(case):
    f, points = _SWEEP_CASES[case]
    t = np.array([z.real for z in points[:50]])
    many = series_module._evaluate_many(f, t)
    for x, v in zip(t.tolist(), many.tolist()):
        assert abs(v - evaluate(f, x).value) <= dot_bound(f, x, scale=4.0), x


def test_a_real_point_is_summed_in_real_arithmetic(monkeypatch):
    # at a real z > 0 on the principal branch evaluate, and the Fourier
    # evaluator with no dispatch, take math.log, a real exp and the real
    # product _evaluate_many shares; complex points take the complex one
    fe = FourierEvaluator(classical_stable(StableParams(0.6, cmath.exp(0.7j * math.pi)),
                                           20.0)[0])
    f, points = fe.series, _SWEEP_CASES["fourier-0.6"][1]
    calls = []

    def counted(*args):
        calls.append(args)
        return complex_sum(*args)

    complex_sum = series_module._complex_sum
    monkeypatch.setattr(series_module, "_complex_sum", counted)
    for z in points[:50]:
        got = evaluate(f, z)
        assert _bits(fe(z.real)) == _bits(got) == _bits(evaluate(f, z.real))
    assert calls == []
    evaluate(f, points[50])
    assert len(calls) == 1


def test_evaluate_raises_where_a_term_overflows_as_the_loop_does():
    f = desc({0.0: 1.0, 8.0: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceGuardWarning)
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError):
            reference_evaluate(f, 1e-100j)
        with pytest.raises(OverflowError):
            evaluate(f, 1e-100j)
        with pytest.raises(OverflowError):
            evaluate(f, 1e-100)
        # near overflow a power may stay finite, rounded as the loop rounds it
        for r in (707.9, 708.1, 709.0, 709.5):
            for z in (math.exp(-r / 8) * cmath.exp(0.1j), math.exp(-r / 8)):
                assert _bits(evaluate(f, z)) == _bits(reference_evaluate(f, z)), (r, z)


def test_evaluate_refuses_a_sum_that_overflows():
    # every power is finite, and the term 1e300 * 20^8 is not
    f = GenSeries(NAT, Variable.DESCENDING, Normalization.RAW, {0: 1, 8: 1e300}, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            evaluate(f, 0.05)
        with pytest.raises(OverflowError):
            series_module._evaluate_many(f, np.array([0.05, 2.0]))
        # past the same bound, outside the guard radius, a finite sum returns
        assert evaluate(f, 1e38).value == pytest.approx(1.0 + 1e300 * 1e38 ** -8, rel=1e-15)


def test_the_tail_bound_is_computed_on_first_read_only(monkeypatch):
    f, z = cauchy_resolvent(), 4.0 - 1.0j
    want = reference_evaluate(f, z)
    calls = []

    def counted(*args):
        calls.append(args)
        return eager(*args)

    eager = series_module._tail_bound
    monkeypatch.setattr(series_module, "_tail_bound", counted)
    res = evaluate(f, z)
    assert abs(res.value - want.value) <= dot_bound(f, z) and calls == []
    assert float(res.tail_bound).hex() == float(want.tail_bound).hex()
    assert len(calls) == 1
    built = EvalResult(value=res.value, tail_bound=want.tail_bound)
    assert res == built and repr(res) == repr(built) and hash(res) == hash(built)
    assert len(calls) == 1 and "_bound_args" not in vars(res)
    # a result built by hand holds its bound from the start
    twin = EvalResult(value=1j, tail_bound=0.5)
    assert twin == EvalResult(value=1j, tail_bound=0.5)
    assert repr(twin) == "EvalResult(value=1j, tail_bound=0.5)"
    assert len(calls) == 1


def test_a_tail_bound_whose_lead_term_overflows_is_infinite():
    # x = c A |z| = 750 lies between 700 and N + 2, and x^801 / 801! overflows
    f = GenSeries(NAT, Variable.ASCENDING, Normalization.GAMMA, {1.0: 750.0}, 800.0)
    res = evaluate(f, 1.0)
    assert res.tail_bound == math.inf
    assert res == EvalResult(value=750 + 0j, tail_bound=math.inf)


def test_evaluate_naturals_past_gamma_overflow_read_zero():
    f = _PLAN_CASES["naturals-200"][0]
    head = f.truncated(170.0)
    assert evaluate(f, 2.0).value == evaluate(head, 2.0).value
    assert abs(evaluate(f, 2.0).value - math.e ** 2) < 1e-13


def test_a_planned_series_still_equals_a_fresh_copy():
    f = cauchy_resolvent()
    fresh = cauchy_resolvent()
    evaluate(f, -3j)
    assert f == fresh and fresh == f
    assert repr(f) == repr(fresh)
    assert f.with_terms(f.terms) == f
    # a series built from its own vector equals the one built from its map
    assert f.with_terms(f.coefs) == f
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
    merged = merged_series()
    assert merged.with_terms(merged.coefs) == merged.with_terms(dict(merged.terms))


def test_gamma_factor_matches_scipy_with_poles_and_overflow():
    special = pytest.importorskip("scipy.special")
    xs = [-40.25 + 0.1059 * k for k in range(2000)]  # -40.25 .. 171.44, no pole
    for x in xs + [170.5, 171.6]:
        want = float(special.gamma(x))
        assert abs(gamma_factor(x) - want) <= 1e-14 * abs(want), x
    # past the overflow and at the poles, 1 / Gamma reads 0 as scipy's rgamma does
    for x in (171.7, 200.0, 1e6, 0.0, -1.0, -7.0):
        assert 1.0 / gamma_factor(x) == float(special.rgamma(x)) == 0.0, x
    assert gamma_factor(171.7) == float(special.gamma(171.7)) == math.inf


def test_poisson_tail_matches_scipy_incomplete_gamma():
    special = pytest.importorskip("scipy.special")
    # x from 1e-6 to 700 on a log scale, plus both sides of N = x
    xs = [10.0 ** (-6.0 + (6.0 + math.log10(700.0)) * k / 149.0)
          for k in range(150)] + [0.5, 1.0, 2.0, 31.5, 32.0, 32.5, 699.9]
    for N in range(1, 65):
        for x in xs:
            want = math.exp(x) * float(special.gammainc(N, x))
            got = series_module._poisson_tail(N, x)
            if want < 1e-290:  # subnormal: no relative accuracy to test
                assert got < 1e-290, (N, x, got)
                continue
            assert abs(got - want) <= 1e-12 * want, (N, x, got, want)


def test_poisson_tail_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):  # mpmath's precision is global: restore it on exit
        for N in (1, 7, 20, 48, 64):
            for x in (1e-3, 0.3, 5.0, N - 0.5, N + 0.5, 90.0, 700.0):
                want = mpmath.exp(x) * mpmath.gammainc(N, 0, x, regularized=True)
                got = series_module._poisson_tail(N, x)
                assert abs(got - want) <= 1e-14 * want, (N, x)


# ------------------------------------------------------------ growth fit

def test_growth_fit_cauchy_unit_radius():
    gb = growth_fit(cauchy_resolvent())
    assert gb.A == pytest.approx(1.0)


def test_growth_fit_scales_with_coefficient_radius():
    m = moment_series(NAT, {float(n): (2j) ** n for n in range(21)}, 20.0)
    gb = growth_fit(stieltjes_from_moments(m))
    assert gb.A == pytest.approx(2.0)
    assert divergence_guard_radius(stieltjes_from_moments(m)) \
        == pytest.approx(2.5)


# --------------------------------------------------- container behaviour

def test_truncation_drops_high_terms_and_keeps_cutoff():
    f = desc({0.0: 1.0, 3.0: 2.0, 7.0: -1.0})
    t = f.truncated(3.5)
    assert set(t.terms) == {0.0, 3.0}
    assert t.cutoff == 3.5


def test_stored_coefficients_are_read_only_and_never_negative_zero():
    f = desc({0.0: 1.0, 2.0: -0.5j})
    with pytest.raises(TypeError):
        f.terms[1.0] = 2.0
    with pytest.raises(ValueError):
        f.coefs[0] = 2.0
    vec = np.zeros(len(f.grid()), dtype=np.complex128)
    vec[1], vec[2] = complex(-0.0, 3.0), complex(2.0, -0.0)
    g = f.with_terms(vec)
    vec[1] = 5.0  # the series keeps its own copy
    assert g.terms == {1.0: 3j, 2.0: 2.0}
    assert math.copysign(1.0, g.terms[1.0].real) == 1.0
    assert math.copysign(1.0, g.terms[2.0].imag) == 1.0


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, -math.inf)])
def test_a_coefficient_that_is_not_finite_is_refused(bad):
    with pytest.raises(ResourceGuardError, match="exponent 1 is .* below this limit"):
        desc({0: 1, 1: bad, 2: 0.5j})
    vec = np.zeros(len(desc({}).grid()), dtype=np.complex128)
    vec[0], vec[3] = 1.0, bad
    with pytest.raises(ResourceGuardError, match="exponent 3 is"):
        desc(vec)


def test_terms_off_grid_are_rejected():
    from powertail.errors import InvalidArgumentError
    with pytest.raises(InvalidArgumentError):
        desc({0.5: 1.0})


def _per_key_build(grid, terms, cutoff):
    """The coefficient vector and dropped count of a map, built one key at
    a time: an exact value by a dict of the grid values (the last index of
    equal ones), else a neighbour within the merge tolerance."""
    from powertail.errors import InvalidArgumentError
    values = grid.values.tolist()
    exact = {v: i for i, v in enumerate(values)}
    coefs, dropped = np.zeros(len(values), dtype=np.complex128), 0
    for k, c in terms.items():
        k = float(k)
        i = exact.get(k, -1)
        if i < 0:
            j = int(np.searchsorted(grid.values, k))
            for near in (j - 1, j):
                if 0 <= near < len(values) and abs(k - values[near]) \
                        <= semigroup_module.MERGE_REL_TOL * max(1.0, min(k, values[near])):
                    i = near
                    break
        if i < 0:
            if k > cutoff:
                dropped += 1
                continue
            raise InvalidArgumentError("exponent %r is not on the grid" % (k,))
        coefs[i] += complex(c)
    return coefs, dropped


def test_a_map_builds_the_vector_of_the_per_key_loop():
    """Keys that merge to one grid value add up in map order, keys past
    the cutoff are dropped and counted, one off the grid below it raises."""
    from powertail.errors import InvalidArgumentError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceMergeWarning)
        f = merged_series(6.0)
        grid = f.grid()
        rng = np.random.default_rng(5)
        vals = grid.values.tolist()
        terms = {}
        for v in vals + [v * (1.0 + 3e-10) for v in vals[1::3]] + [v - 2e-10 for v in vals[2::5]]:
            terms[v] = complex(*rng.normal(size=2))
        # one value past the cutoff, on and off the grid's multiples
        terms.update({6.5: 1.0, 7.0: -2.0, 1e9: 3.0})
        got = desc(terms, 6.0, MERGED)
    want, dropped = _per_key_build(grid, terms, 6.0)
    assert len(terms) > len(vals) + 10 and dropped == 3
    assert got.dropped == dropped
    assert got.coefs.tobytes() == want.tobytes()
    nat = desc({0.0: 1.0, 2.0: 0.5j, 2.0 + 1e-12: -0.25, 9.0: 1.0, 8.5: 2.0})
    want, dropped = _per_key_build(nat.grid(), {0.0: 1.0, 2.0: 0.5j, 2.0 + 1e-12: -0.25,
                                                9.0: 1.0, 8.5: 2.0}, 8.0)
    assert nat.coefs.tobytes() == want.tobytes() and nat.dropped == dropped == 2
    with pytest.raises(InvalidArgumentError, match="exponent 0.5 is not on the grid"):
        desc({0.0: 1.0, 9.0: 1.0, 0.5: 2.0, 1.5: 1.0})
    with pytest.raises(InvalidArgumentError, match="exponent 3.5 is not on the grid"):
        desc({0.0: 1.0, 3.5: 1.0, 8.5: 2.0})


# ------------------------------------------------- the one public edge

def test_an_adopted_series_is_the_one_built_from_its_vector():
    # a kernel's vector becomes a series at the public return, with no copy;
    # it is the series the constructor builds from the same vector
    f = desc({0.0: 2.0, 1.0: -0.5j, 3.0: 0.25}, 8.0)
    for got in (reciprocal(f), binomial_power(scale(f, 0.5), 0.5),
                revert_F(f_form(NAT, {1.0: 0.3, 2.0: -0.1j}, 8.0))):
        built = GenSeries(got.spec, got.variable, got.normalization, got.coefs.copy(),
                          got.cutoff, got.exponent_shift)
        assert got == built and built == got
        assert repr(got) == repr(built)
        assert pickle.loads(pickle.dumps(got)) == built
        assert pickle.dumps(got) == pickle.dumps(built)
        assert got.dropped == built.dropped == 0
        assert not got.coefs.flags.writeable
        with pytest.raises(ValueError):
            got.coefs[0] = 1.0
        assert not np.signbit(got.coefs.real[got.coefs.real == 0]).any()
        assert not np.signbit(got.coefs.imag[got.coefs.imag == 0]).any()


def _refused_in_silence(fn, coefficient: str):
    # the kernel overflows with numpy's warnings off: with every warning an
    # error, the finite check's refusal is still the first thing raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceGuardError, match=re.escape(coefficient + " in double")):
            fn()


def test_a_reciprocal_that_overflows_is_refused():
    f = desc({0.0: 1.0, 1.0: 1e200}, 4.0)  # 1 / (1 + c w): c^2 is past double range
    _refused_in_silence(lambda: reciprocal(f), "exponent 2 is (nan+nanj)")


def test_a_power_and_a_product_that_overflow_are_refused():
    f = desc({0.0: 1.0, 1.0: 1e200}, 4.0)
    _refused_in_silence(lambda: binomial_power(f, 0.5), "exponent 2 is (-inf+nanj)")
    _refused_in_silence(lambda: product(f, f), "exponent 2 is (inf+0j)")


def test_a_reversion_that_overflows_is_refused():
    # the residual of an overflowed inverse is nan, which its check reads as
    # consistent: the finite check after it refuses the inverse
    F = f_form(NAT, {2.0: 1e200}, 8.0)
    _refused_in_silence(lambda: revert_F(F), "exponent 4 is (-inf+0j)")
