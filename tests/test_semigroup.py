"""Exponent lattices: enumeration order, collision merging, the
per-window counting constant, the sparse pair list and its ordering, and
the sub-grids picked by the gcd of a support."""

import cmath
import gc
import itertools
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as hst

from powertail.errors import (InvalidArgumentError, ResourceGuardError,
                              ToleranceMergeWarning, UnsupportedSemigroupError)
from powertail.semigroup import (ExponentGrid, SemigroupSpec, density_constant,
                                 enumerate_up_to, exponent_grid)
from powertail.series import GenSeries, Normalization, Variable, product
from powertail.stable import (StableKind, StableParams, _stable_moments, boolean_stable,
                              classical_stable, free_stable, monotone_stable)
from powertail.transforms import (boolean_convolve, classical_convolve, free_convolve,
                                  monotone_convolve)


def values(spec, cutoff):
    return [e.value for e in enumerate_up_to(spec, cutoff)]


def test_half_generator_merges_collisions():
    # 0.5+0.5 and the integer generator 1 land on the same point once
    got = values(SemigroupSpec.with_alphas(0.5), 2.0)
    assert got == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(got) == len(set(got))


def test_natural_spec_enumerates_integers():
    assert values(SemigroupSpec.natural(), 3.0) == [0.0, 1.0, 2.0, 3.0]


def test_sqrt2_lattice_interleaves_both_generators():
    r2 = math.sqrt(2.0)
    got = values(SemigroupSpec.with_alphas(r2), 3.0)
    want = [0.0, 1.0, r2, 2.0, 1.0 + r2, 2.0 * r2, 3.0]
    assert got == pytest.approx(want)


def test_enumeration_cutoff_edge_cases():
    # zero keeps just the unit; negatives are rejected
    assert [e.value for e in enumerate_up_to(SemigroupSpec.natural(), 0.0)] \
        == [0.0]
    with pytest.raises(InvalidArgumentError):
        enumerate_up_to(SemigroupSpec.natural(), -1.0)


def test_counting_constant_trivial_for_integers():
    assert density_constant(SemigroupSpec.natural(), 10) == 1.0


def test_counting_constant_half_lattice():
    # two points per unit window: [n, n+1) holds n and n + 1/2
    assert density_constant(SemigroupSpec.with_alphas(0.5), 5) == pytest.approx(2.0)


def test_counting_constant_bounds_window_population():
    spec = SemigroupSpec.with_alphas(0.3)
    c = density_constant(spec, 6)
    vals = values(spec, 7.0)
    for n in range(7):
        count = sum(1 for v in vals if n <= v < n + 1)
        assert count <= c ** (n + 1) * (1.0 + 1e-9)


def brute_enumeration(fracs, cutoff):
    """{exact value: lexicographically smallest counts} over every count
    vector of the generators fracs whose exact sum is at most cutoff."""
    cut = Fraction(cutoff)
    best = {}
    for counts in itertools.product(*[range(int(cut / f) + 1) for f in fracs]):
        v = sum(n * f for n, f in zip(counts, fracs))
        if v <= cut and (v not in best or counts < best[v]):
            best[v] = counts
    return best


@pytest.mark.parametrize("alphas, cutoff", [
    ((), 5.0), ((Fraction(1, 3),), 8.0), ((Fraction(2, 5),), 7.5),
    ((Fraction(5, 4),), 9.0), ((Fraction(1, 2), Fraction(1, 3)), 6.0),
    ((Fraction(3, 10), Fraction(7, 10)), 4.0)])
def test_enumeration_and_counting_constant_match_brute_force(alphas, cutoff):
    spec = SemigroupSpec.with_alphas(*[float(a) for a in alphas])
    fracs = (Fraction(1),) + tuple(sorted(alphas))  # the spec sorts them too
    best = brute_enumeration(fracs, cutoff)
    got = enumerate_up_to(spec, cutoff)
    assert [e.value for e in got] == [float(v) for v in sorted(best)]
    assert [e.counts for e in got] == [best[v] for v in sorted(best)]
    assert all(type(n) is int for e in got for n in e.counts)
    # windows [n, n+1) counted on the exact values up to horizon + 1
    exact = sorted(brute_enumeration(fracs, 9))
    for horizon in range(1, 9):
        window = [sum(1 for v in exact if n <= v < n + 1) for n in range(horizon + 1)]
        want = max([1.0] + [cnt ** (1.0 / (n + 1)) for n, cnt in enumerate(window) if cnt])
        assert density_constant(spec, horizon) == want


def test_grid_lookup_agrees_with_enumeration():
    spec = SemigroupSpec.with_alphas(0.5)
    grid = exponent_grid(spec, 4.0)
    assert list(grid.values) == pytest.approx(values(spec, 4.0))


@pytest.mark.parametrize("alpha, cutoff, want", [
    (1 / 3, 1 / 3, [0.0, 1 / 3]), (1 / 3, 2 / 3, [0.0, 1 / 3, 2 / 3]),
    (0.1, 0.3, [0.0, 0.1, 0.2, 0.3]), (0.5, 1.5, [0.0, 0.5, 1.0, 1.5])])
def test_a_rational_whose_double_is_the_cutoff_is_on_the_grid(alpha, cutoff, want):
    # the doubles of 1/3, 2/3 and 3/10 lie just below the rationals
    spec = SemigroupSpec.with_alphas(alpha)
    assert list(exponent_grid(spec, cutoff).values) == want
    f = GenSeries(spec, Variable.ASCENDING, Normalization.RAW, {alpha: 2.0}, cutoff)
    assert f.truncated(cutoff).terms[alpha] == 2.0


@given(hst.floats(min_value=0.15, max_value=1.9),
       hst.floats(min_value=1.0, max_value=5.0))
def test_enumeration_sorted_and_closed_under_addition(alpha, cutoff):
    assume(abs(alpha - 1.0) > 1e-6)
    assume(abs(alpha - round(alpha)) > 1e-6)
    spec = SemigroupSpec.with_alphas(alpha)
    vals = values(spec, cutoff)
    assert vals == sorted(vals)
    assert vals[0] == 0.0
    # additive closure strictly below the cutoff, within float slack;
    # sums landing within 1e-6 of the boundary may fall either side of
    # the exact enumeration cut, so they are skipped
    for i, a in enumerate(vals):
        for b in vals[i:]:
            s = a + b
            if s > cutoff - 1e-6:
                break
            assert min(abs(s - v) for v in vals) < 1e-7


def brute_pairs(grid):
    """Every (i, j) -> k by direct lookup of each sum, sorted like the
    pair list."""
    vals = list(grid.values)
    out = []
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            k = grid.index_of(a + b)
            if k >= 0:
                out.append((k, i, j))
    return sorted(out)


@pytest.mark.parametrize("alphas, cutoff", [((), 5.0), ((0.4,), 6.0),
                                            ((math.sqrt(2.0),), 6.0),
                                            ((0.3, 0.7), 3.0)])
def test_pair_list_matches_brute_force(alphas, cutoff):
    grid = ExponentGrid(SemigroupSpec.with_alphas(*alphas), cutoff)
    pl = grid.pairs()
    assert sorted(zip(pl.k.tolist(), pl.i.tolist(), pl.j.tolist())) \
        == brute_pairs(grid)
    assert list(pl.k) == sorted(pl.k)
    assert all(pl.j[p] < pl.reach[pl.i[p]] for p in range(len(pl.k)))


@pytest.mark.parametrize("alphas, cutoff", [((0.4,), 8.0),
                                            ((1.0 / 3.0 + 1e-10,), 6.0),
                                            ((math.sqrt(2.0) / 20, math.pi / 45), 2.0)])
def test_pairs_onto_k_come_from_smaller_indices(alphas, cutoff):
    # the one ordering a kernel relies on: coefficient k reads only
    # coefficients before it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceMergeWarning)
        pl = ExponentGrid(SemigroupSpec.with_alphas(*alphas), cutoff).pairs()
    inner = (pl.i > 0) & (pl.j > 0)
    assert inner.any()
    assert np.all(pl.i[inner] < pl.k[inner]) and np.all(pl.j[inner] < pl.k[inner])


def test_a_pair_out_of_order_is_refused():
    # swap the coordinates of indices 1 and 2 (2/5 and 4/5) on the grid of
    # 2/5: index 2 then reads 2/5, and its pair with itself lands on index
    # 1, below its summands
    grid = ExponentGrid(SemigroupSpec.with_alphas(0.4), 2.0)
    swap = np.arange(len(grid))
    swap[[1, 2]] = [2, 1]
    grid._set(grid.values, grid._coords[swap], grid._keys[swap])
    with pytest.raises(UnsupportedSemigroupError, match="out of order"):
        grid._build_pairs()


def test_pair_guard_refuses_before_allocating():
    # n = 21,185 exponents and 32.3M valid pairs: the seed's dense
    # n x n product would have needed about 9 GB.  A term on each
    # generator makes the product run on the whole grid.
    spec = SemigroupSpec.with_alphas(math.sqrt(2.0) / 20, math.pi / 45)
    terms = {0.0: 1.0, 1.0: 0.5, math.sqrt(2.0) / 20: 0.25, math.pi / 45: 0.125}
    f = GenSeries(spec, Variable.DESCENDING, Normalization.RAW, terms, 8.0)
    with pytest.raises(ResourceGuardError, match="exponent pairs"):
        product(f, f)


@pytest.mark.parametrize("g, want", [
    # each of these has a fraction with denominator <= 10**6 within 1e-12
    # of it, but none within a few ulps
    (math.sqrt(3.0), None), (math.pi, None), (math.e / 10, None),
    (math.sqrt(2.0) / 20, None),
    (0.4123, Fraction(4123, 10000)), (1 / 3, Fraction(1, 3)), (0.7, Fraction(7, 10)),
    (0.5001, Fraction(5001, 10000)), (2 / 3, Fraction(2, 3)), (1 / 7, Fraction(1, 7)),
    (0.1 + 0.2, Fraction(3, 10)),  # one ulp above the double of 3/10
])
def test_generators_are_fractions_only_within_a_few_ulps(g, want):
    forms = SemigroupSpec.with_alphas(g).rational_forms()
    assert forms == (None if want is None else (Fraction(1), want))


def test_three_irrational_generators_build_a_grid():
    spec = SemigroupSpec.with_alphas(math.sqrt(3.0), math.sqrt(5.0), math.pi)
    grid = ExponentGrid(spec, 9.0)
    assert grid.values[-1] <= 9.0 and grid.pairs().defect < 1e-9


def test_tolerance_merge_warns_and_records_its_defect():
    with pytest.warns(ToleranceMergeWarning, match="merged"):
        grid = ExponentGrid(SemigroupSpec.with_alphas(1.0 / 3.0 + 1e-10), 6.0)
    assert 0.0 < grid.pairs().defect < 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error", ToleranceMergeWarning)
        exact = ExponentGrid(SemigroupSpec.with_alphas(1.0 / 3.0), 6.0)
    assert exact.pairs().defect == 0.0
    assert len(exact) == len(grid)


# ------------------------------------------------- generated sub-semigroups

def brute_closure(grid, support):
    """The grid indices of the sub-semigroup that support generates: add
    every valid sum of two members until nothing changes."""
    pl = grid.pairs()
    member = np.zeros(len(grid), dtype=bool)
    member[0] = True
    member[list(support)] = True
    while True:
        grown = member.copy()
        grown[pl.k[member[pl.i] & member[pl.j]]] = True
        if np.array_equal(grown, member):
            return np.flatnonzero(member)
        member = grown


def _supports(grid, alpha):
    """Empty, {a}, {2a, 3a} (a semigroup with gaps), {a, 1}, and the last
    exponent under the cutoff, as grid indices."""
    at = [grid.index_of(c * alpha) for c in (1, 2, 3)] + [grid.index_of(1.0)]
    assert min(at) >= 0
    return [[], at[:1], at[1:3], [at[0], at[3]], [len(grid) - 1]]


def gcd_multiples(grid, support):
    """The grid indices each of whose exact coordinates is a multiple of
    the gcd of that coordinate over support, or 0 where that gcd is 0.
    A rational spec has one coordinate, the lattice integer: the exponent
    read from its counts times the common denominator.  A float spec's
    coordinates are its counts."""
    fracs = grid.spec.rational_forms()
    if fracs is None:
        coords = grid.reps
    else:
        den = math.lcm(*(f.denominator for f in fracs))
        coords = [(int(sum(c * f for c, f in zip(rep, fracs)) * den),) for rep in grid.reps]
    gs = [math.gcd(*(coords[s][c] for s in support)) for c in range(len(coords[0]))]
    return [i for i, x in enumerate(coords)
            if all(v % g == 0 if g else v == 0 for v, g in zip(x, gs))]


@pytest.mark.parametrize("alphas", [(1.0 / 3.0,), (0.4,), (0.4123,), (0.4, 0.7),
                                    (0.5001,), (math.pi / 8,), (math.sqrt(2.0) / 2,),
                                    (math.sqrt(2.0) / 2, math.pi / 8)])
def test_generated_sub_semigroup_is_the_closure(alphas):
    """The sub-grid is the multiples of the support's gcd: the closure of
    the support, except where the closure has gaps below that gcd's
    multiples, as at {2a, 3a}.  The last exponent is the cutoff 6, whose
    coordinates on a float spec are its count of the generator 1 alone."""
    grid = ExponentGrid(SemigroupSpec.with_alphas(*alphas), 6.0)
    pl = grid.pairs()
    triples = set(zip(pl.k.tolist(), pl.i.tolist(), pl.j.tolist()))
    for n, support in enumerate(_supports(grid, alphas[0])):
        idx, sub = grid.generated(np.array(support, dtype=np.intp))
        assert idx.tolist() == gcd_multiples(grid, support), support
        # it is the closure, except at {2a, 3a}: there it adds a and more
        closure = set(brute_closure(grid, support).tolist())
        inside = set(idx.tolist())
        assert closure < inside if n == 2 else closure == inside, support
        # closed under sums: every grid pair inside lands inside
        assert all(k in inside for k, i, j in triples if i in inside and j in inside)
        assert sub.values.tolist() == grid.values[idx].tolist()
        assert list(sub.reps) == [grid.reps[i] for i in idx.tolist()]
        if len(idx) == len(grid):
            assert sub is grid and sub.pairs() is pl
            continue
        # the sub-grid's pairs are the grid's pairs inside idx, in its order
        sp = sub.pairs()
        got = list(zip(idx[sp.k].tolist(), idx[sp.i].tolist(), idx[sp.j].tolist()))
        assert set(got) == {t for t in triples if t[1] in inside and t[2] in inside}
        assert got == sorted(got, key=lambda t: t[0])


@pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.4123, 1.5, math.pi / 8, math.sqrt(2.0) / 2])
def test_generated_is_the_closure_on_stable_law_traffic(alpha, monkeypatch):
    """Every support that building and self-convolving a stable law of
    each kind asks about has its closure as its gcd multiples, so there
    the kernels run on what their operands generate and no more."""
    calls, real = [], ExponentGrid.generated

    def record(grid, support):
        idx, sub = real(grid, support)
        calls.append((grid, np.array(support), idx))
        return idx, sub

    monkeypatch.setattr(ExponentGrid, "generated", record)
    _stable_moments.cache_clear()  # so that the builds are recorded too
    b = cmath.exp(1j * math.pi * (1.0 - alpha / 2.0))  # mid-window phase
    laws = [
        (classical_stable(StableParams(alpha, b), 8.0)[0], classical_convolve),
        (free_stable(StableParams(alpha, b, kind=StableKind.FREE), 8.0), free_convolve),
        (boolean_stable(StableParams(alpha, b, kind=StableKind.BOOLEAN), 8.0),
         boolean_convolve),
        (monotone_stable(alpha, b, 8.0), monotone_convolve),
    ]
    for m, convolve in laws:
        before = len(calls)
        convolve(m, m)
        assert len(calls) > before
    for grid, support, idx in calls:
        assert idx.tolist() == brute_closure(grid, support).tolist(), support


def test_whole_grid_when_merged_or_every_generator_is_in_the_support():
    # 2 (pi/8) and pi/4 are one double, and 1/3 + 1e-10 merges with
    # neighbours by tolerance: on such a float grid the sum of two
    # representatives can land on another count vector of an exponent,
    # so every support keeps the whole grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToleranceMergeWarning)
        merged = [ExponentGrid(SemigroupSpec.with_alphas(math.pi / 8, math.pi / 4), 4.0),
                  ExponentGrid(SemigroupSpec.with_alphas(1.0 / 3.0 + 1e-10), 6.0)]
    for grid in merged:
        alpha = grid.spec.fractional_generators[0]
        for support in ([], [grid.index_of(alpha)], [grid.index_of(2 * alpha)]):
            idx, sub = grid.generated(np.array(support, dtype=np.intp))
            assert sub is grid and idx.tolist() == list(range(len(grid)))
            assert sub.pairs() is grid.pairs()
    # every generator in the support, on a rational and on a float spec
    for alphas in ((0.4, 0.7), (math.sqrt(2.0),)):
        grid = ExponentGrid(SemigroupSpec.with_alphas(*alphas), 6.0)
        every = [grid.index_of(g) for g in alphas + (1.0, 2.0)]
        idx, sub = grid.generated(np.array(every))
        assert sub is grid and sub.pairs() is grid.pairs()
    # under the cutoff 0.9 the grid is 0, 0.4, 0.8: all multiples of 0.4
    small = ExponentGrid(SemigroupSpec.with_alphas(0.4), 0.9)
    idx, sub = small.generated(np.array([small.index_of(0.4)]))
    assert sub is small and idx.tolist() == [0, 1, 2] and small._subs == {}


def test_sub_grids_are_kept_by_generators_and_at_most_eight():
    grid = ExponentGrid(SemigroupSpec.with_alphas(0.4123), 12.0)
    a = grid.index_of(0.4123)
    _, sub = grid.generated(np.array([a]))
    # a larger support with the same gcd finds the same sub-grid
    assert grid.generated(np.array([a, grid.index_of(3 * 0.4123)]))[1] is sub
    for c in range(2, 12):
        grid.generated(np.array([grid.index_of(c * 0.4123)]))
    assert len(grid._subs) == 8
    assert all(s is not sub for _, s in grid._subs.values())


def test_sub_grids_live_on_their_grid_only():
    spec = SemigroupSpec.with_alphas(0.4123)
    exponent_grid.cache_clear()
    grid = exponent_grid(spec, 8.0)
    assert grid._subs == {}
    support = np.array([grid.index_of(0.4123)])
    _, sub = grid.generated(support)
    assert sub._subs == {}
    # another grid of the same spec builds its own
    twin = ExponentGrid(spec, 8.0)
    assert twin._subs == {} and twin.generated(support)[1] is not sub
    gone = weakref.ref(sub)
    del grid, sub
    exponent_grid.cache_clear()
    gc.collect()
    assert gone() is None
    fresh = exponent_grid(spec, 8.0)
    assert fresh._subs == {}


@pytest.mark.parametrize("alphas, cutoff", [
    ((), 5.0), ((Fraction(1, 3),), 8.0), ((Fraction(2, 5),), 7.5),
    ((Fraction(1, 2), Fraction(1, 3)), 6.0), ((Fraction(3, 10), Fraction(7, 10)), 4.0)])
def test_lazy_reps_are_the_smallest_counts(alphas, cutoff):
    """``reps`` is built on its first read, on the grid and on each sub-grid,
    and is the lexicographically smallest counts of each exponent."""
    spec = SemigroupSpec.with_alphas(*[float(a) for a in alphas])
    best = brute_enumeration((Fraction(1),) + tuple(sorted(alphas)), cutoff)
    exact = sorted(best)
    grid = ExponentGrid(spec, cutoff)
    assert grid._reps is None
    idx, sub = grid.generated(np.array([grid.index_of(float(exact[2]))]))
    assert len(sub) < len(grid) and sub._reps is None
    assert list(sub.reps) == [best[exact[i]] for i in idx.tolist()]
    assert list(grid.reps) == [best[v] for v in exact]
    assert all(type(n) is int for c in grid.reps for n in c)
