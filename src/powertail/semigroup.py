"""Additive exponent semigroups and their truncated enumeration.

A semigroup spec lists positive real generators; the semigroup is the
set of all non-negative integer combinations.  The generator 1 is
always present, so the natural numbers embed in every semigroup here.
Enumeration up to a cutoff produces the canonical exponent grid that
the series layer indexes into.

Two generators whose combination values collide are merged:  values
v1 <= v2 are identified when |v1 - v2| <= 1e-9 * max(1, v1).  When
every generator is recognizably rational (a fraction with denominator
<= 10**6 whose double is within 4 ulps of the generator), enumeration
and merging run exactly over a common integer lattice instead, so
collisions like 3*(1/3) == 1 are exact rather than tolerance-based.
Either way the grid comes from one numpy enumeration over integer count
vectors; a lattice whose cutoff reaches 2^53 is refused, since its
integers would no longer be exact in a double.  A rational spec's grid
is its distinct lattice sums, from one integer sort with no counts:
each exponent's smallest counts (``ExponentGrid.reps``) are sorted out
only when first read, and no kernel reads them.  A float spec's counts
are its coordinates, sorted by (value, counts) to merge.

Each exponent has exact integer coordinates, its lattice integer on a
rational spec and its counts on a float one: one exact lookup of their
sums finds the grid's pairs, and their multiples of a support's gcds
are closed under sums and hold the sub-semigroup the support generates.
On an arithmetic progression 0, g, ..., (n - 1) g the pairs onto k are
(i, k - i), and a kernel indexes them by arithmetic with no list.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidArgumentError,
    ResourceGuardError,
    ToleranceMergeWarning,
    UnsupportedSemigroupError,
)

MERGE_REL_TOL = 1e-9
# a generator computed as p/q in a few roundings is still read as p/q; the
# best fraction for a generic real is thousands of ulps away
RATIONAL_DETECT_ULPS = 4
RATIONAL_MAX_DENOMINATOR = 10**6

# hard cap on enumerated lattice points before merging
_MAX_POINTS = 4_000_000
# hard cap on the valid exponent pairs of one grid (three int32 each)
MAX_PAIRS = 8_000_000
# lattice integers and their quotients by the denominator stay exact below this
_EXACT_INTS = 2**53
# a float spec keeps the exponents up to this far past its cutoff, relative
_FLOAT_SLACK = 1e-12


def _rational_form(g: float) -> Fraction | None:
    """Fraction with denominator <= 10**6 whose double is within a few
    ulps of g, or None."""
    fr = Fraction(g).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    if abs(g - float(fr)) <= RATIONAL_DETECT_ULPS * math.ulp(g):
        return fr
    return None


@dataclass(frozen=True)
class SemigroupSpec:
    """Finitely generated additive exponent semigroup.

    ``fractional_generators`` holds the generators besides 1, sorted
    strictly ascending.  Exact non-negative integers are dropped at
    construction since they generate nothing outside the naturals.
    """

    fractional_generators: tuple[float, ...] = ()

    def __post_init__(self):
        gens = []
        for g in self.fractional_generators:
            g = float(g)
            if not math.isfinite(g) or g <= 0.0:
                raise InvalidArgumentError(
                    "semigroup generators must be positive finite reals, got %r" % (g,))
            if g == math.floor(g):
                continue  # already inside the naturals
            gens.append(g)
        gens.sort()
        for a, b in zip(gens, gens[1:]):
            if a == b:
                raise InvalidArgumentError("duplicate semigroup generator %r" % (a,))
        object.__setattr__(self, "fractional_generators", tuple(gens))

    @staticmethod
    def natural() -> "SemigroupSpec":
        return SemigroupSpec(())

    @staticmethod
    def with_alphas(*alphas: float) -> "SemigroupSpec":
        return SemigroupSpec(tuple(alphas))

    @property
    def generators(self) -> tuple[float, ...]:
        """Full generator tuple; index 0 is always the generator 1."""
        return (1.0,) + self.fractional_generators

    def rational_forms(self) -> tuple[Fraction, ...] | None:
        """Exact fractions for all generators, or None if any resists."""
        out = (Fraction(1),) + tuple(map(_rational_form, self.fractional_generators))
        return None if None in out else out

    def describe(self) -> str:
        if not self.fractional_generators:
            return "naturals"
        return "naturals + " + ", ".join("%.17g" % g for g in self.fractional_generators)


class ExponentIndex(NamedTuple):
    """A merged exponent value with one representative multi-index.

    ``counts[k]`` multiplies ``spec.generators[k]``.  When several
    multi-indices give the same value the lexicographically smallest
    counts tuple is kept; nothing downstream depends on the choice.
    """

    value: float
    counts: tuple[int, ...]


def _count_vectors(spec: SemigroupSpec, cutoff: float, counts: bool = True):
    """Every count vector of spec up to the cutoff, as (den, limit,
    sums, counts).  On a rational spec den is the common denominator and
    sums are lattice integers up to the integer limit; counts is None
    unless asked for.  On a float spec den is None, sums are float values
    and counts always come, enumerated past limit by the merge slack, so
    that a count vector just above the top exponent that merges into it
    is on the grid too."""
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff < 0:
        raise InvalidArgumentError("cutoff must be a non-negative real, got %r" % (cutoff,))
    if math.prod(math.floor(cutoff / g) + 1.0 for g in spec.generators) > _MAX_POINTS:
        raise ResourceGuardError("enumeration of %r up to cutoff %g exceeds %d lattice points"
                                 % (spec.generators, cutoff, _MAX_POINTS))

    fracs = spec.rational_forms()
    if fracs is None:
        den, weights, limit = None, spec.generators, cutoff * (1.0 + _FLOAT_SLACK)
        sums = np.zeros(1)
        top, counts = limit + MERGE_REL_TOL * max(1.0, limit), True
    else:
        den = math.lcm(*[f.denominator for f in fracs])
        cn, cd = cutoff.as_integer_ratio()
        limit = cn * den // cd
        if max(den, limit) >= _EXACT_INTS:
            raise UnsupportedSemigroupError(
                "the common denominator %d of %s puts cutoff %g past the 2^53 integers "
                "a double holds exactly" % (den, spec.describe(), cutoff))
        # a rational just above the cutoff whose double is the cutoff is on
        # the grid; with den and limit below 2^53 it adds at most two points.
        # An int quotient is correctly rounded: it is the rational's double
        while (limit + 1) / den <= cutoff:
            limit += 1
        # a weight past the limit is only ever taken zero times
        weights = [min(int(f * den), limit + 1) for f in fracs]
        top, sums = limit, np.zeros(1, np.int64)
    # every count vector with sum n_k w_k <= top, one generator at a time
    cols = np.zeros((1, 0), np.int64) if counts else None
    for w in weights:
        tot = sums[:, None] + np.arange(int(top // w) + 2) * w
        if counts:
            row, n = np.nonzero(tot <= top)
            sums, cols = tot[row, n], np.column_stack((cols[row], n))
        else:
            tot = tot.ravel()
            sums = tot[tot <= top]
    return den, limit, sums, cols


def _lattice(spec: SemigroupSpec, cutoff: float):
    """Merged exponents of spec in [0, cutoff]: ascending values, their
    coordinates (the lattice integer of a rational spec, the counts of a
    float one) and the keys of those, the keys of every count vector on
    the grid with its exponent's index when an exponent has several
    (else None), and the count of distinct float values merged by
    tolerance alone up to the cutoff.  A rational spec's values are its
    distinct lattice sums, found with no counts."""
    den, limit, sums, counts = _count_vectors(spec, cutoff, counts=False)
    if den is not None:
        # np.unique would import numpy.ma, 14 ms, on its first call
        sums.sort()
        keys = sums[np.append(True, sums[1:] != sums[:-1])]
        return keys / den, keys[:, None], keys, None, 0
    # by value, then by counts: each group leads with its smallest counts
    order = np.lexsort((*counts[:, ::-1].T, sums))
    sums, counts = sums[order], counts[order]
    keep, by_tolerance = _merge_by_tolerance(sums, limit)
    group = np.cumsum(keep) - 1
    # the count vectors of the groups that lead at or below the limit
    on = group < np.searchsorted(sums[keep], limit, side="right")
    sums, counts, keep, group = sums[on], counts[on], keep[on], group[on]
    # mixed-radix keys: a count of a sum of two is at most twice the
    # largest, so a sum of keys never carries
    keys = counts @ np.cumprod([1] + [2 * m + 1 for m in counts.max(0).tolist()[:-1]])
    merged = None if keep.all() else (keys, group)
    return sums[keep], counts[keep], keys[keep], merged, by_tolerance


def _least_counts(spec: SemigroupSpec, cutoff: float, coords: np.ndarray,
                  keys: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The lexicographically smallest counts of each exponent of the grid
    of (spec, cutoff) with these coordinates and keys.  A float spec's
    coordinates are its counts; a rational spec's are enumerated again,
    sorted by (value, counts), and read at the keys."""
    if coords.shape[1] > 1:
        return tuple(map(tuple, coords.tolist()))
    sums, counts = _count_vectors(spec, cutoff)[2:]
    order = np.lexsort((*counts[:, ::-1].T, sums))
    sums, counts = sums[order], counts[order]
    lead = np.append(True, sums[1:] != sums[:-1])
    at = np.searchsorted(sums[lead], keys)
    return tuple(map(tuple, counts[lead][at].tolist()))


def _merge_by_tolerance(v: np.ndarray, limit: float) -> tuple[np.ndarray, int]:
    """Group leaders of the ascending values v: a value within
    MERGE_REL_TOL of its group's leader joins the group.  Returns the
    leader mask and the count of merged values up to limit unequal to
    their leader."""
    keep = np.ones(len(v), dtype=bool)
    # a value can only be near its leader when it is near its neighbour
    near = np.flatnonzero(v[1:] - v[:-1] <= MERGE_REL_TOL * np.maximum(1.0, v[:-1])) + 1
    lead, by_tolerance = 0, 0
    for p in near.tolist():
        if keep[p - 1]:
            lead = p - 1
        if v[p] - v[lead] <= MERGE_REL_TOL * max(1.0, v[lead]):
            keep[p] = False
            by_tolerance += bool(v[lead] != v[p] <= limit)
    return keep, by_tolerance


def enumerate_up_to(spec: SemigroupSpec, cutoff: float) -> list[ExponentIndex]:
    """Ordered merged exponents of the semigroup in [0, cutoff]."""
    values, coords, keys = _lattice(spec, cutoff)[:3]
    reps = _least_counts(spec, cutoff, coords, keys)
    return [ExponentIndex(v, c) for v, c in zip(values.tolist(), reps)]


@lru_cache(maxsize=1024)
def density_constant(spec: SemigroupSpec, horizon: int) -> float:
    """Smallest c >= 1 with window counts #(S in [n, n+1)) <= c^(n+1)
    witnessed on windows n = 0 .. horizon."""
    horizon = int(horizon)
    if horizon < 0:
        raise InvalidArgumentError("horizon must be a non-negative integer")
    values = _lattice(spec, horizon + 1)[0]
    window = np.bincount(np.floor(values + 1e-12).astype(np.int64), minlength=horizon + 1)
    return max([1.0] + [cnt ** (1.0 / (n + 1))
                        for n, cnt in enumerate(window[:horizon + 1].tolist()) if cnt])


def guard_radius(spec: SemigroupSpec, A: float, horizon: int) -> float:
    """1.25 c A: the radius past which a series on spec whose coefficients
    grow like A^gamma is trusted, c = density_constant(spec, horizon)."""
    return 1.25 * density_constant(spec, horizon) * A


class PairList(NamedTuple):
    """The valid additions of an exponent grid, sorted by output index.

    Pair p says values[i[p]] + values[j[p]] is the grid value at index
    k[p]; both orders of each pair are listed, and within one k the
    pairs run in ascending i.  Every pair (i, j) -> k with i, j > 0 has
    i < k and j < k, so a triangular recurrence can fill coefficient k
    from the coefficients before it.  ``reach[i]`` bounds row i: every
    pair (i, j) has j < reach[i].

    ``weights`` stands in for the values: the lattice integers of a
    rational spec, exactly additive, or the values of a float spec.  The
    pairs of both are found on exact integer coordinates, so ``defect``,
    max |w_i + w_j - w_k| / w_k over the pairs, is 0 on a rational spec,
    roundoff on a float one, and up to MERGE_REL_TOL where it merged.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    reach: np.ndarray
    weights: np.ndarray
    defect: float


class ExponentGrid:
    """Canonical merged exponents of (spec, cutoff) plus their sparse
    addition structure.

    ``values`` ascend; ``index_of`` finds a value by one ``searchsorted``
    and an exact compare, then by the merge tolerance, with no index
    dict.  ``reps``, the smallest counts of each exponent, is built on
    its first read: no kernel reads it.  ``pairs()`` lists every (i, j)
    -> k with values[i] + values[j] == values[k], grouped by k (see
    ``PairList``); sums past the cutoff are never formed.  The pairs are
    found on the exponents' exact integer coordinates.  On an arithmetic
    progression no kernel asks for them: it reads the pairs onto each k
    as slices (``progression_runs``), or convolves.  A
    float spec whose enumeration merged distinct values by tolerance warns
    with ``ToleranceMergeWarning``, since its sums then hold only to that
    tolerance.
    """

    def __init__(self, spec: SemigroupSpec, cutoff: float):
        self.spec = spec
        self.cutoff = float(cutoff)
        values, coords, keys, merged, by_tolerance = _lattice(spec, cutoff)
        if by_tolerance:
            warnings.warn(ToleranceMergeWarning(
                "%d exponents of %s up to cutoff %g merged with a neighbour "
                "within relative tolerance %g; sums on this grid are exact only "
                "to that tolerance" % (by_tolerance, spec.describe(), self.cutoff,
                                       MERGE_REL_TOL)), stacklevel=2)
        self._set(values, coords, keys, merged)

    def _set(self, values, coords, keys, merged=None) -> None:
        self.values, self._coords, self._keys, self._merged = values, coords, keys, merged
        self._reps: tuple | None = None
        self._pairs: PairList | None = None
        self._progression: bool | None = None
        self._runs: tuple | None = None
        self._subs: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.values)

    @property
    def reps(self) -> tuple[tuple[int, ...], ...]:
        """The lexicographically smallest counts of each exponent."""
        if self._reps is None:
            self._reps = _least_counts(self.spec, self.cutoff, self._coords, self._keys)
        return self._reps

    @property
    def merged(self) -> bool:
        """Whether several count vectors share an exponent of this grid."""
        return self._merged is not None

    def top(self, cutoff: float) -> float:
        """The largest exponent the grid of this spec up to ``cutoff``
        may hold: the cutoff on a rational spec, and 1e-12 past it,
        relative, on a float one."""
        return cutoff if self._coords.shape[1] == 1 else cutoff * (1.0 + _FLOAT_SLACK)

    def index_of(self, v: float) -> int:
        """Grid index of the merged value containing v, or -1."""
        j = int(self.values.searchsorted(v, side="right"))
        if j and self.values[j - 1] == v:
            return j - 1
        return int(self.indices_of([v])[0])

    def indices_of(self, vs) -> np.ndarray:
        """``index_of`` of every value of vs: the last index of an equal
        grid value, else one of its two neighbours within the merge
        tolerance, else -1."""
        values, vs = self.values, np.asarray(vs, dtype=np.float64)
        j = np.searchsorted(values, vs, side="right")
        out = j - 1
        hit = values.take(out, mode="clip") == vs
        if hit.all():
            return out
        # v is not on the grid: j is where it would go, as with side="left"
        out[~hit] = -1
        for k in (j, j - 1):
            lead = values.take(k, mode="clip")
            near = np.abs(vs - lead) <= MERGE_REL_TOL * np.maximum(1.0, np.minimum(vs, lead))
            take = ~hit & near & (0 <= k) & (k < len(values))
            out[take] = k[take]
        return out

    def canonical(self, v: float) -> float:
        i = self.index_of(float(v))
        if i < 0:
            raise KeyError("exponent %r is not on the grid (cutoff %g, generators %r)"
                           % (v, self.cutoff, self.spec.generators))
        return float(self.values[i])

    def generated(self, support) -> tuple[np.ndarray, "ExponentGrid"]:
        """Grid indices ``idx`` of the exponents whose every coordinate is a
        multiple of its gcd g over the grid indices ``support`` (0 where g
        is 0), and a grid ``sub`` over them alone, whose pairs are this
        grid's pairs inside idx.  idx is closed under sums and holds the
        sub-semigroup that support generates.  A g of all ones or one that
        divides every coordinate gives this grid, and so does a grid that
        merged count vectors, where a sum of kept exponents may land on one
        not kept.  The last 8 sub-grids are kept here, by g."""
        n, coords = len(self.values), self._coords
        c = self._flat()
        gcd = np.gcd.reduce(c.take(np.asarray(support, dtype=np.intp), axis=0))
        g = tuple(np.atleast_1d(gcd).tolist())
        if self._merged is not None or g.count(1) == len(g):
            return np.arange(n), self
        hit = self._subs.pop(g, None)
        if hit is None:
            # a coordinate whose gcd is 0 must be 0, the one multiple of its top + 1
            rem = c % np.where(gcd == 0, c.max(0) + 1, gcd)
            idx = np.flatnonzero(rem == 0 if c.ndim == 1 else ~rem.any(1))
            if len(idx) == n:
                return idx, self
            sub = copy.copy(self)
            sub._set(self.values[idx], coords[idx], self._keys[idx])
            hit = idx, sub
        self._subs[g] = hit  # newest last
        if len(self._subs) > 8:
            del self._subs[next(iter(self._subs))]
        return hit

    def _flat(self) -> np.ndarray:
        """The coordinates: a rational spec's one column of lattice
        integers as a 1-D array, a float spec's counts as rows."""
        coords = self._coords
        return coords[:, 0] if coords.shape[1] == 1 else coords

    def pairs(self) -> PairList:
        if self._pairs is None:
            self._pairs = self._build_pairs()
        return self._pairs

    def progression(self) -> bool:
        """Whether this grid is 0, g, 2g, ..., (n - 1) g for some g and
        n > 1, read on its exact coordinates.  Its pairs are then every
        (i, j) -> i + j, n (n + 1) / 2 of them, and a kernel may index it
        as a power series in z^g without building them; one over
        MAX_PAIRS is refused here as ``pairs()`` would refuse it."""
        n, c = len(self.values), self._flat()
        if self._progression is None:  # read once; the guard runs on every call
            self._progression = bool(n > 1 and self._merged is None
                                     and (np.diff(c, axis=0) == c[1]).all())
        if self._progression:
            self._check_pairs(n * (n + 1) // 2)
        return self._progression

    def progression_runs(self) -> tuple:
        """The pairs (i, j) -> k with j > 0 of a progression, (i, k - i) for
        i < k, as a kernel indexes them: per k the slices [:k] of their i's
        and [k:0:-1] of their j's; the offsets k (k - 1) / 2 of the runs
        onto k = 0 .. n in the flat list of them, and that list's i's and
        j's, as many as the pair guard allows, int32 and built by
        arithmetic; the indices, which are the additive weights; and
        ``reach``, n - i.  Built once and kept on the grid."""
        if self._runs is None:
            n = len(self.values)
            ks = np.arange(n)
            start = list(accumulate(range(n), initial=0))
            # k repeated k times, and i = 0 .. k - 1 along each run
            k = np.repeat(ks.astype(np.int32), ks)
            i = np.arange(start[-1], dtype=np.int32) - np.repeat(
                np.array(start[:-1], dtype=np.int32), ks)
            self._runs = (list(map(slice, range(n))),
                          list(map(slice, range(n), repeat(0), repeat(-1))),
                          start, i, k - i, ks.astype(np.float64), n - ks)
        return self._runs

    def _check_pairs(self, total: int) -> None:
        if total > MAX_PAIRS:
            raise ResourceGuardError(
                "the %d-exponent grid of %s up to cutoff %g has %d exponent pairs, "
                "more than the limit of %d" % (len(self.values), self.spec.describe(),
                                               self.cutoff, total, MAX_PAIRS))

    def _build_pairs(self) -> PairList:
        n, keys = len(self.values), self._keys
        # one coordinate is the lattice integer, an exactly additive
        # stand-in for the values; float values hold sums to a few ulps
        exact = self._coords.shape[1] == 1
        w = keys.astype(np.float64) if exact else self.values
        # row i pairs with the prefix of j that fits under a top 8 merge
        # tolerances past the last weight, so rounding in top - w never
        # keeps (i, j) and drops (j, i); the keys decide which pairs exist
        top = w[-1] + 8.0 * MERGE_REL_TOL * max(1.0, w[-1])
        lim = np.searchsorted(w, top - w, side="right")
        total = int(lim.sum())
        self._check_pairs(total)
        i = np.repeat(np.arange(n, dtype=np.int32), lim)
        first = np.cumsum(lim) - lim
        j = (np.arange(total, dtype=np.int64) - np.repeat(first, lim)).astype(np.int32)
        # a sum is on the grid when its key is one of the table's
        table, at = self._merged or (keys, np.arange(n))
        if np.any(table[1:] < table[:-1]):
            order = np.argsort(table)
            table, at = table[order], at[order]
        tot = keys[i] + keys[j]
        # a sum past the last key clips onto it, which it does not equal
        p = np.searchsorted(table, tot)
        ok, k = table.take(p, mode="clip") == tot, at.take(p, mode="clip")
        if not ok.all():
            i, j, k = i[ok], j[ok], k[ok]
        order = np.argsort(k, kind="stable")
        i, j, k = i[order], j[order], k[order].astype(np.int32)
        # a kernel fills k from the pairs onto it, so their i and j must come first
        if np.any(((i >= k) | (j >= k)) & (i > 0) & (j > 0)):
            raise UnsupportedSemigroupError(
                "grid sums are out of order: an exponent pair lands at or below one "
                "of its summands")
        # the first pair is (0, 0) -> 0, the one pair onto the exponent 0
        defect = 0.0 if exact else float(np.max(
            np.abs(w[i] + w[j] - w[k])[1:] / w[k[1:]], initial=0.0))
        return PairList(i, j, k, lim, w, defect)


@lru_cache(maxsize=128)
def exponent_grid(spec: SemigroupSpec, cutoff: float) -> ExponentGrid:
    return ExponentGrid(spec, float(cutoff))
