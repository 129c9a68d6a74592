"""Truncated generalized power series over an exponent semigroup.

A series is one complex coefficient vector aligned with the canonical
grid of its semigroup, truncated at a cutoff exponent; its ``terms``
read the same coefficients as a map {exponent: complex}.  Kernels read
and write the vector, and a change of reading passes it on unchanged.
Each public operation wraps a private kernel on grid vectors, and the
transforms and law constructors chain those kernels: a vector becomes a
series only where a public call returns (``GenSeries._adopt``).  Each
vector gets the finite check the constructor runs once, where it is
written: a kernel checks its result, with numpy's overflow warnings
off, and ``_adopt`` takes it as it is.
The variable direction says whether terms mean c * z^gamma (ASCENDING,
densities and characteristic functions near zero) or c * z^(-gamma)
(DESCENDING, transforms at infinity).  GAMMA normalization divides
each term by Gamma(gamma + 1), the grading under which the classical
convolution is a plain product.

``exponent_shift`` lets one structural z-power ride along without
entering the grid: a Stieltjes-type series stores d_gamma at key gamma
while meaning d_gamma * z^(-gamma-1) (shift +1), and a reciprocal-
Cauchy form stores b_gamma at key gamma while meaning
z * b_gamma * z^(-gamma) (shift -1, unit constant term).  Algebraic
operations act on unshifted series; transform code peels and restores
shifts explicitly.

Arithmetic runs over a sparse pair list (``ExponentGrid.pairs()``):
the valid additions (i, j) -> k grouped by k.  A kernel takes it from
the grid of the exponents whose integer coordinates (the lattice
integer of a rational spec, the generator counts of a float one) are
multiples of their gcds over its operands' nonzero exponents
(``ExponentGrid.generated``), which is closed under sums and holds its
result, and scatters the result back to the whole grid: a stable law
without drift, say, lives on the multiples of alpha, rational or
not.  A product is one grouped sum over the pair list; on an arithmetic
progression 0, s, ..., (n - 1) s a series is a power series in z^s,
and a product there is one ``np.convolve``.  Reciprocals,
binomial powers, the graded exponential, composition and reversion all
go through one triangular recurrence kernel built on the Euler
operator theta, which multiplies the coefficient at exponent e by e: a
power p = (1 + h)^beta satisfies theta(p) (1 + h) = beta p theta(h),
and exp(h) satisfies theta(E) = E theta(h) (J. C. P. Miller's formula;
Brent and Kung, J. ACM 25, 1978).  Every pair onto k with i, j > 0 has
i, j < k, so the kernel fills one coefficient at a time from its own
pairs: one dot of p with the per-pair factors for a single row, whose
factors it gathers for many coefficients at once, and one product and
column sum for several rows.  Composition and reversion fill one power
series per term of the outer form together, reversion online, as each
new coefficient of the inverse becomes known (van der Hoeven, "Relax,
but don't be too lazy", JSC 34, 2002).  The online pass takes its rows
in one set or two: one set's tail terms set its own unknown (the
inverse of a form, or the subordination function of a free
self-convolution), and of two sets each sets the other's (the two
subordination functions of a free convolution, ``_subordinate_v``).
Each unknown's tail terms are summed in the order the pass's residual
check sums them, since those terms can exceed the coefficient by many
orders.  Only the indexing of the pairs onto k depends on the grid: on
an arithmetic progression 0, g, ..., (n - 1) g, as the multiples of
alpha that a stable law without drift lives on, they are the slices
[:k] and [k:0:-1] with no pair list, and elsewhere they are the k-th
run of the pair list.

The substitution kernel ``_substitute_v`` computes
sum_g a_g w^g (1 + h)^(1 + g), the moments of a monotone convolution
(``transforms.monotone_convolve``).  Off a progression it runs the
shifted rows of composition, with powers 1 + g where composition takes
1 - g.  On a progression of step s it is (1 + h) A(x q), with x = w^s,
q = (1 + h)^s one row of the recurrence, and A read by Horner's rule in
one convolution a step.  Composition keeps its rows on every grid: a
Horner composition of forms measured less accurate.

Evaluation reads a per-series plan, built on the first ``evaluate`` and
kept on the instance, so a point costs one vectorised exp and one dot
product with the coefficients, divided by their Gamma factors once in
the plan.  The tail bound is computed when the result's ``tail_bound``
is first read.
"""

from __future__ import annotations

import bisect
import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    DivergenceGuardWarning,
    DomainBranchError,
    IncompatibleSeriesError,
    InvalidArgumentError,
    InvalidFormError,
    NonConvergentReversionError,
    NormalizationError,
    NotInvertibleError,
    ResourceGuardError,
)
from .semigroup import (
    ExponentGrid,
    SemigroupSpec,
    density_constant,
    exponent_grid,
    guard_radius,
)

DEFAULT_CUTOFF = 20.0


class Variable(Enum):
    ASCENDING = "ascending"
    DESCENDING = "descending"


class Normalization(Enum):
    RAW = "raw"
    GAMMA = "gamma"


class Branch(Enum):
    PRINCIPAL = "principal"
    MONOTONE = "monotone"


@dataclass(frozen=True)
class GrowthBound:
    """Geometric coefficient bound |c_gamma| <= A**gamma."""

    A: float


@dataclass(frozen=True)
class EvalResult:
    """Partial-sum value plus a conservative truncation-tail bound.

    ``evaluate`` leaves the bound out and keeps what ``_tail_bound``
    needs; the first read of ``tail_bound`` computes it and stores it, so
    a caller that reads only the value never pays for it."""

    value: complex
    tail_bound: float

    def __getattr__(self, name):  # reached only while the bound is unread
        if name != "tail_bound" or "_bound_args" not in self.__dict__:
            raise AttributeError(name)
        bound = self.__dict__["tail_bound"] = _tail_bound(*self._bound_args)
        del self.__dict__["_bound_args"]
        return bound

    def __complex__(self) -> complex:
        return self.value


def gamma_factor(x: float) -> float:
    """Gamma(x) to a few ulps.  At the poles 0, -1, -2, ... and past the
    overflow near x = 171.62 it is inf, so that 1 / Gamma reads 0."""
    try:
        return math.gamma(x)
    except ValueError:  # a pole
        return math.inf
    except OverflowError:  # x > 171.62, or |x| < 5.6e-309
        return math.copysign(math.inf, x)


def _positive_cutoff(cutoff) -> float:
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise InvalidArgumentError("cutoff must be a positive real")
    return cutoff


def _finite(coefs: np.ndarray, spec: SemigroupSpec, cutoff: float) -> np.ndarray:
    """coefs, a grid vector of (spec, cutoff), with -0.0 read as +0.0 in
    place, as when a sum starts from 0j; a coefficient that is not finite
    raises ResourceGuardError naming its exponent."""
    coefs += 0j
    ok = np.isfinite(coefs)
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ResourceGuardError(
            "the coefficient at exponent %g is %r in double precision; lower the "
            "cutoff below this limit" % (exponent_grid(spec, cutoff).values[bad],
                                         complex(coefs[bad])))
    return coefs


def _seeded(spec: SemigroupSpec, cutoff: float, terms: Mapping
            ) -> tuple[ExponentGrid, np.ndarray]:
    """The grid of (spec, cutoff) and a fresh vector on it holding the few
    terms of a map, by the rules of ``GenSeries``: one key at a time by
    ``index_of``, merged keys adding up in map order, a key past the
    cutoff dropped, one off the grid at or below it raising."""
    cutoff = _positive_cutoff(cutoff)
    grid = exponent_grid(spec, cutoff)
    coefs = np.zeros(len(grid), dtype=np.complex128)
    for k, c in terms.items():
        k = float(k)
        i = grid.index_of(k)
        if i >= 0:
            coefs[i] += complex(c)
        elif not k > cutoff:  # a nan is not past it
            raise InvalidArgumentError("exponent %r is not on the grid of %s"
                                       % (k, spec.describe()))
    return grid, coefs


class GenSeries:
    """An immutable truncated series.  It holds one read-only complex
    vector ``coefs`` aligned with the exponent grid of (spec, cutoff).

    ``terms`` is either that vector or a map {exponent: coefficient}.
    In a map, looked up in one ``ExponentGrid.indices_of``, exponents
    that merge to one grid value add up in map order, an exponent past
    the cutoff is dropped and counted in ``dropped``, and one off the
    grid at or below it raises.  Either way the constructor stores a
    fresh copy with no negative zero, and a coefficient that is not
    finite raises ResourceGuardError.  A vector checked so where it was
    written, as every kernel's result is, is adopted instead
    (``_adopt``), with no copy and no second check.  The ``terms``
    property reads it back as a read-only map of the nonzero
    coefficients by ascending exponent.
    """

    def __init__(self, spec: SemigroupSpec, variable: Variable,
                 normalization: Normalization, terms: Mapping | np.ndarray,
                 cutoff: float = DEFAULT_CUTOFF, exponent_shift: int = 0):
        if not isinstance(spec, SemigroupSpec):
            raise InvalidArgumentError("spec must be a SemigroupSpec")
        if not isinstance(variable, Variable) or not isinstance(normalization, Normalization):
            raise InvalidArgumentError("variable/normalization must use the package enums")
        cutoff = _positive_cutoff(cutoff)
        shift = int(exponent_shift)
        if normalization is Normalization.GAMMA and shift != 0:
            raise InvalidArgumentError("GAMMA normalization does not combine with a shift")
        grid = exponent_grid(spec, cutoff)
        dropped = 0
        if isinstance(terms, np.ndarray):
            if terms.shape != (len(grid),):
                raise InvalidArgumentError(
                    "a coefficient vector on the %d-exponent grid of %s has shape %r"
                    % (len(grid), spec.describe(), terms.shape))
            coefs = np.array(terms, dtype=np.complex128)
        else:
            keys = np.array([float(k) for k in terms])
            at = grid.indices_of(keys)
            on = at >= 0
            # off the grid and not past the cutoff (a nan is not past it)
            bad = keys[~on & ~(keys > cutoff)]
            if len(bad):
                raise InvalidArgumentError("exponent %r is not on the grid of %s"
                                           % (float(bad[0]), spec.describe()))
            dropped = len(keys) - int(on.sum())
            vals = [complex(c) for c, o in zip(terms.values(), on.tolist()) if o]
            coefs = np.zeros(len(grid), dtype=np.complex128)
            # in map order, so merged keys add up as a loop over the map would
            np.add.at(coefs, at[on], np.array(vals, dtype=np.complex128))
        _finite(coefs, spec, cutoff)
        self._own(spec, variable, normalization, coefs, cutoff, shift, dropped)

    @classmethod
    def _adopt(cls, spec: SemigroupSpec, variable: Variable, normalization: Normalization,
               coefs: np.ndarray, cutoff: float, exponent_shift: int = 0) -> "GenSeries":
        """The series that takes over ``coefs``, a fresh complex vector on
        the grid of (spec, cutoff) that no one else holds, with no copy:
        the one way a checked vector becomes a series.  The arguments are
        those of a series already checked, and the vector has been passed
        through ``_finite`` where it was written, so nothing is checked
        again."""
        f = cls.__new__(cls)
        f._own(spec, variable, normalization, coefs, cutoff, exponent_shift, 0)
        return f

    def _own(self, spec, variable, normalization, coefs, cutoff, shift, dropped) -> None:
        coefs.flags.writeable = False
        self.__dict__.update(spec=spec, variable=variable, normalization=normalization,
                             coefs=coefs, cutoff=cutoff, exponent_shift=shift,
                             dropped=dropped)

    def __setattr__(self, name, value):
        raise AttributeError("a GenSeries cannot be changed")

    def __reduce__(self):  # copies rebuild from the vector; the cached map does not pickle
        return GenSeries, (self.spec, self.variable, self.normalization, self.coefs,
                           self.cutoff, self.exponent_shift)

    def __eq__(self, other):
        if not isinstance(other, GenSeries):
            return NotImplemented
        mine, theirs = ((f.spec, f.variable, f.normalization, f.cutoff, f.exponent_shift)
                        for f in (self, other))
        return mine == theirs and np.array_equal(self.coefs, other.coefs)

    @cached_property
    def terms(self) -> Mapping[float, complex]:
        """The nonzero coefficients by ascending exponent, read-only."""
        idx = np.flatnonzero(self.coefs)
        return MappingProxyType(dict(zip(self.grid().values[idx].tolist(),
                                         self.coefs[idx].tolist())))

    # -- inspection ----------------------------------------------------

    def coefficient(self, exponent: float) -> complex:
        i = self.grid().index_of(float(exponent))
        return complex(self.coefs[i]) if i >= 0 else 0j

    def grid(self) -> ExponentGrid:
        return exponent_grid(self.spec, self.cutoff)

    def with_terms(self, terms: Mapping | np.ndarray, **overrides) -> "GenSeries":
        kw = dict(spec=self.spec, variable=self.variable,
                  normalization=self.normalization, cutoff=self.cutoff,
                  exponent_shift=self.exponent_shift)
        kw.update(overrides)
        return GenSeries(terms=terms, **kw)

    def truncated(self, cutoff: float) -> "GenSeries":
        if cutoff > self.cutoff:
            raise InvalidArgumentError("cannot extend a truncated series")
        if cutoff == self.cutoff:
            return self
        return self.with_terms(self.terms, cutoff=cutoff)

    def __repr__(self):
        head = ", ".join("%g: %g%+gj" % (k, v.real, v.imag)
                         for k, v in list(self.terms.items())[:6])
        more = "" if len(self.terms) <= 6 else ", ... %d terms" % len(self.terms)
        return ("GenSeries(%s, %s, %s, cutoff=%g, shift=%+d, {%s%s})"
                % (self.spec.describe(), self.variable.value,
                   self.normalization.value, self.cutoff,
                   self.exponent_shift, head, more))


def unit_series(spec: SemigroupSpec, variable: Variable,
                normalization: Normalization,
                cutoff: float = DEFAULT_CUTOFF) -> GenSeries:
    return GenSeries(spec, variable, normalization, {0.0: 1.0 + 0j}, cutoff)


# -- compatibility checks ----------------------------------------------


def _require_combinable(f: GenSeries, g: GenSeries, what: str) -> None:
    if f.spec != g.spec:
        raise IncompatibleSeriesError(
            "%s: exponent semigroups differ (%s vs %s)"
            % (what, f.spec.describe(), g.spec.describe()))
    if f.variable is not g.variable:
        raise IncompatibleSeriesError("%s: variable directions differ" % what)
    if f.normalization is not g.normalization:
        raise IncompatibleSeriesError("%s: normalizations differ" % what)
    if f.exponent_shift != g.exponent_shift:
        raise IncompatibleSeriesError("%s: structural shifts differ" % what)


def _require_plain(f: GenSeries, what: str) -> None:
    if f.exponent_shift != 0:
        raise InvalidFormError(
            "%s acts on unshifted series; peel the structural shift first" % what)


# -- recurrence kernel -------------------------------------------------

# hard cap on the complex cells of one kernel's row matrix (rows x grid)
MAX_KERNEL_CELLS = 1 << 24
# cells of one kernel temporary, a slab of one row's per-pair factors: 1 MB
# of complex.  At 1 << 20 a slab raised peak memory by 15 MB.
_CHUNK_CELLS = 1 << 16


def _group_sum(keys: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """out[k] = sum of vals over the entries whose sorted key is k."""
    out = np.zeros(n, dtype=np.complex128)
    if len(keys):
        heads = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        out[keys[heads]] = np.add.reduceat(vals, heads)
    return out


def _convolve(a: np.ndarray, b: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    """Grid convolution: out[k] = sum over value pairs summing to value k."""
    pl = grid.pairs()
    return _group_sum(pl.k, a[pl.i] * b[pl.j], len(grid))


def _shift_pairs(grid: ExponentGrid, index: np.ndarray):
    """Pairs (i, j) -> k whose j is index[r], as (i, r, k) sorted by k and
    then by ascending i, which is descending r when index ascends.  On a
    progression they are (k - index[r], index[r]) -> k, by arithmetic."""
    if grid.progression():
        i = np.arange(len(grid))[:, None] - index[::-1]
        k, c = np.nonzero(i >= 0)  # column c is row R - 1 - c
        return i[k, c], len(index) - 1 - c, k
    pl = grid.pairs()
    row_of = np.full(len(pl.reach), -1)
    row_of[index] = np.arange(len(index))
    rows = row_of[pl.j]
    sel = rows >= 0
    return pl.i[sel], rows[sel], pl.k[sel]


def _check_cells(rows: int, grid: ExponentGrid) -> None:
    """Refuse a kernel of ``rows`` rows on ``grid`` past MAX_KERNEL_CELLS."""
    if rows * len(grid) > MAX_KERNEL_CELLS:
        raise ResourceGuardError(
            "a %d-row series kernel on the %d-exponent grid of %s needs more than "
            "%d cells" % (rows, len(grid), grid.spec.describe(), MAX_KERNEL_CELLS))


def _euler_weights(kind: str, w: np.ndarray):
    """u, v and d of the recurrence d_k p_k = sum p_i h_j (beta u_j - v_i)
    of ``kind``, from the additive weights w of a grid's exponents."""
    zero, one = np.zeros(len(w)), np.ones(len(w))
    return {"power": (w, w, w), "exp": (w, zero, w), "reciprocal": (zero, one, one)}[kind]


def _euler_rows(grid: ExponentGrid, h: np.ndarray, betas: np.ndarray, kind: str,
                shifts: np.ndarray | None = None,
                tail_coef: np.ndarray | None = None,
                split: int | None = None) -> np.ndarray:
    """Rows p_r of a series function of 1 + h, one coefficient at a time.

    With w the grid's additive weights (so that the Euler operator
    multiplies the coefficient at index k by w_k) and sums over the pairs
    (i, j) -> k with j > 0:

    * ``"power"``: p_r = (1 + h)^beta_r, w_k p_k = sum p_i h_j (beta_r w_j - w_i);
    * ``"exp"``: p = exp(h), w_k p_k = sum p_i h_j w_j (beta = 1);
    * ``"reciprocal"``: p = 1/(1 + h), p_k = -sum p_i h_j, free of w.

    h has no constant term.  Every pair onto k with i, j > 0 has i, j < k
    (``PairList``), so coefficient k reads only coefficients before it:
    it is one sum over its pairs, by ascending i, of p_i times the factor
    h_j (beta_r u_j - v_i), divided by d_k.  Only their indexing depends
    on the grid: on a progression they are the slices [:k] and [k:0:-1]
    (``ExponentGrid.progression_runs``), and elsewhere the k-th run of the
    pair list, less the pairs whose h_j is 0 when h is known.

    A single row with h known gathers the factors of many coefficients at
    once, in slabs of at most ``_CHUNK_CELLS`` cells, and sums each
    coefficient as one dot; otherwise each coefficient gathers the factors
    of its active rows: row r of several, to be shifted by the grid
    exponent at index ``shifts[r]``, is needed only at the k that the
    shift keeps under the cutoff (k below ``reach[shifts[r]]``); shifts
    must ascend.

    ``tail_coef`` makes h unknown on entry, and the rows come in one set
    or, with ``split``, two: rows [0, split) are powers of 1 + h[0] and
    rows [split, R) of 1 + h[1], h a (2, n) array, the shifts ascending
    within each set.  At each k the unknowns are set first: one set's
    tail, the sum of tail_coef_r p_r[i] over the pairs (i, shifts[r]) -> k
    of its rows, sets its own unknown, and of two sets each one's tail
    sets the other's; the unknowns keep being set after every row has
    dropped out.  Each tail is summed by descending r in one
    ``reduceat``, and a closing residual check sums it again, in that
    order, from the finished rows: terms far larger than h_k, summed in
    another order, would leave a residual of their roundoff.  A residual past 1e-9 of
    the largest unknown (or of 1) raises NonConvergentReversionError; one
    that is not finite passes, and the caller's finite check refuses the
    overflowed result.  Each set keeps its own block of rows and count of
    active rows: merged by shift, a step that one set runs with a single
    row (a pairwise sum in numpy) would run with two (a sum in sequence),
    and two equal sets would no longer give two equal unknowns.
    """
    n, R = len(grid), len(betas)
    _check_cells(R, grid)
    if grid.progression():
        ii, jj, start, I, J, w, reach = grid.progression_runs()
    else:
        pl = grid.pairs()
        w, reach = pl.weights, pl.reach
        # h_0 is 0, so a known h drops the pairs with j = 0 too
        keep = np.flatnonzero(pl.j if tail_coef is not None else (h != 0).take(pl.j))
        I, J = pl.i.take(keep).astype(np.intp), pl.j.take(keep).astype(np.intp)
        start = np.searchsorted(pl.k.take(keep), np.arange(n + 1)).tolist()
        runs = list(map(slice, start, start[1:]))
        ii, jj = [I[r] for r in runs], [J[r] for r in runs]
    u, v, d = _euler_weights(kind, w)
    d = d.tolist()
    P = np.zeros((n, R), dtype=np.complex128)
    P[0] = 1.0
    if R == 1 and tail_coef is None:
        p, k0 = P[:, 0], 1
        while k0 < n:
            base = start[k0]
            k1 = min(n, max(k0 + 1, bisect.bisect(start, base + _CHUNK_CELLS) - 1))
            i, j = I[base:start[k1]], J[base:start[k1]]
            fac = h[j] * (betas[0] * u[j] - v[i])
            for k in range(k0, k1):
                p[k] = np.dot(fac[start[k] - base:start[k + 1] - base], p[ii[k]]) / d[k]
            k0 = k1
        return P.T
    bu, vc = betas * u[:, None], v[:, None]
    # the sets as (first row, end row, unknown); a shifted row r is needed
    # while k < reach[shifts[r]]
    sets = [(0, R, h)] if split is None else [(0, split, h[0]), (split, R, h[1])]
    blocks = [(lo, [hi - lo] * n if shifts is None else np.searchsorted(
        -reach[shifts[lo:hi]], -np.arange(n), side="left").tolist(), x[:, None])
        for lo, hi, x in sets]
    tails, flat = [], P.reshape(-1)
    if tail_coef is not None:
        for s, (_, _, x) in enumerate(sets):
            lo, hi, _ = sets[s - 1]  # the other set's rows, or with one set its own
            ti, tr, tk = _shift_pairs(grid, shifts[lo:hi])
            tails.append((x, tk, tail_coef[lo + tr], ti * R + lo + tr,
                          np.searchsorted(tk, np.arange(n + 1)).tolist()))
    for k in range(1, n):
        for x, _, tc, tflat, tstart in tails:
            if tstart[k] < tstart[k + 1]:
                t = slice(tstart[k], tstart[k + 1])
                x[k] = np.add.reduceat(tc[t] * flat.take(tflat[t]), [0])[0]
        i, j = ii[k], jj[k]
        for lo, active, hc in blocks:
            a = active[k]
            if a:
                fac = hc[j] * (bu[j, lo:lo + a] - vc[i])
                P[k, lo:lo + a] = (P[i, lo:lo + a] * fac).sum(0) / d[k]
    if tails:
        resid = float(np.max(np.abs([_group_sum(tk, tc * flat.take(tflat), n) - x
                                     for x, tk, tc, tflat, _ in tails])))
        if resid > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
            raise NonConvergentReversionError(
                "reversion recurrence is inconsistent (residual %g)" % resid)
    return P.T


# -- algebra -----------------------------------------------------------
#
# Each public operation checks its operands and wraps one private kernel
# on grid vectors.  A kernel takes full-length vectors on one grid,
# writes its result into one fresh full-length vector, and passes that
# through ``_finite``; a chain of kernels passes vectors along, and
# ``GenSeries._adopt`` makes the series only where a public call returns,
# with no second check.  A kernel runs with numpy's overflow, invalid and
# divide warnings off (``_quiet``): a coefficient past double range is
# refused by that finite check, which names its exponent, and by nothing
# before it.


def _full(idx: np.ndarray, part: np.ndarray, n: int) -> np.ndarray:
    """The length-n grid vector that holds ``part`` at ``idx``, 0 elsewhere:
    ``part`` itself when idx is the whole grid."""
    if len(part) == n:
        return part
    out = np.zeros(n, dtype=np.complex128)
    out[idx] = part
    return out


def _checked(out: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    return _finite(out, grid.spec, grid.cutoff)


def _quiet(kernel):
    # an errstate of its own per kernel: before numpy 2.0 the decorator keeps
    # the state it restores on the instance, so only a kernel calling itself
    # would restore the wrong one, and none does
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")(kernel)


@_quiet
def _combine_v(a: complex, x: np.ndarray, b: complex, y: np.ndarray,
               grid: ExponentGrid) -> np.ndarray:
    return _checked(complex(a) * x + complex(b) * y, grid)


@_quiet
def _product_v(a: np.ndarray, b: np.ndarray, grid: ExponentGrid,
               normalization: Normalization) -> np.ndarray:
    idx, sub = grid.generated(np.flatnonzero((a != 0) | (b != 0)))
    a, b = a[idx], b[idx]
    gamma = normalization is Normalization.GAMMA
    if gamma:
        # Gamma only where the product lives: past 170.6 it is inf, and
        # an exact zero times inf would be nan
        gw = np.array([gamma_factor(v + 1.0) for v in sub.values.tolist()])
        a, b = a / gw, b / gw
    # on a progression the pairs onto k are (i, k - i): one convolution
    out = np.convolve(a, b)[:len(sub)] if sub.progression() else _convolve(a, b, sub)
    return _checked(_full(idx, out * gw if gamma else out, len(grid)), grid)


@_quiet
def _reciprocal_v(a: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    c0 = complex(a[0])
    if c0 == 0:
        raise NotInvertibleError("constant term vanishes; series has no reciprocal")
    idx, sub = grid.generated(np.flatnonzero(a))
    h = a[idx] / c0
    h[0] = 0.0
    p = _euler_rows(sub, h, np.ones(1), "reciprocal")[0]
    return _checked(_full(idx, p / c0, len(grid)), grid)


@_quiet
def _power_v(a: np.ndarray, grid: ExponentGrid, beta: complex) -> np.ndarray:
    idx, sub = grid.generated(np.flatnonzero(a))
    h = a[idx]
    h[0] = 0.0
    p = _euler_rows(sub, h, np.array([complex(beta)]), "power")[0]
    return _checked(_full(idx, p, len(grid)), grid)


@_quiet
def _exp_v(a: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    idx, sub = grid.generated(np.flatnonzero(a))
    p = _euler_rows(sub, a[idx], np.ones(1), "exp")[0]
    return _checked(_full(idx, p, len(grid)), grid)


def _common_grid(f: GenSeries, g: GenSeries):
    """The grid of the smaller cutoff of f and g, and both vectors on it."""
    cutoff = min(f.cutoff, g.cutoff)
    return exponent_grid(f.spec, cutoff), f.truncated(cutoff).coefs, g.truncated(cutoff).coefs


def linear_combine(a: complex, f: GenSeries, b: complex, g: GenSeries) -> GenSeries:
    _require_combinable(f, g, "linear_combine")
    grid, x, y = _common_grid(f, g)
    return GenSeries._adopt(f.spec, f.variable, f.normalization,
                            _combine_v(a, x, b, y, grid), grid.cutoff, f.exponent_shift)


def scale(f: GenSeries, a: complex) -> GenSeries:
    return f.with_terms(complex(a) * f.coefs)


def product(f: GenSeries, g: GenSeries) -> GenSeries:
    """Cauchy product on the shared grid; GAMMA weights are respected."""
    _require_combinable(f, g, "product")
    _require_plain(f, "product")
    grid, a, b = _common_grid(f, g)
    return GenSeries._adopt(f.spec, f.variable, f.normalization,
                            _product_v(a, b, grid, f.normalization), grid.cutoff)


def _require_raw(f: GenSeries, what: str) -> None:
    _require_plain(f, what)
    if f.normalization is not Normalization.RAW:
        raise InvalidFormError("%s is defined for RAW series" % what)


def _like(f: GenSeries, coefs: np.ndarray) -> GenSeries:
    return GenSeries._adopt(f.spec, f.variable, f.normalization, coefs, f.cutoff,
                            f.exponent_shift)


def reciprocal(f: GenSeries) -> GenSeries:
    """Multiplicative inverse up to the cutoff: with f = c0 (1 + h), the
    coefficients of 1/(1 + h) solve p_k = -sum p_i h_j one by one."""
    _require_raw(f, "reciprocal")
    return _like(f, _reciprocal_v(f.coefs, f.grid()))


def binomial_power(f: GenSeries, beta: complex) -> GenSeries:
    """(1 + h)^beta for a series f = 1 + h with unit constant term, from
    the Euler-operator identity theta(p) (1 + h) = beta p theta(h)."""
    _require_raw(f, "binomial_power")
    if f.coefs[0] != 1:
        raise NormalizationError("binomial_power needs constant term exactly 1")
    return _like(f, _power_v(f.coefs, f.grid(), beta))


def graded_exp(f: GenSeries) -> GenSeries:
    """exp(f) for a RAW series with no constant term, from
    theta(E) = E theta(f)."""
    _require_raw(f, "graded_exp")
    if f.coefs[0] != 0:
        raise InvalidArgumentError("graded exponential needs a zero constant term")
    return _like(f, _exp_v(f.coefs, f.grid()))


# -- reciprocal-Cauchy forms -------------------------------------------


def is_f_form(f: GenSeries) -> bool:
    return (f.variable is Variable.DESCENDING
            and f.normalization is Normalization.RAW
            and f.exponent_shift == -1
            and bool(f.coefs[0] == 1))


def _require_f_form(f: GenSeries, what: str) -> None:
    if not is_f_form(f):
        raise InvalidFormError(
            "%s needs a reciprocal-Cauchy form: descending, raw, shift -1, "
            "unit constant term" % what)


def f_form(spec: SemigroupSpec, tail: Mapping[float, complex],
           cutoff: float = DEFAULT_CUTOFF) -> GenSeries:
    """Build z * (1 + sum tail[gamma] z^-gamma) from its tail map."""
    terms = {0.0: 1.0 + 0j}
    for k, c in tail.items():
        k = float(k)
        if k <= 0:
            raise InvalidArgumentError("tail exponents must be positive")
        terms[k] = terms.get(k, 0j) + complex(c)
    return GenSeries(spec, Variable.DESCENDING, Normalization.RAW, terms,
                     cutoff, exponent_shift=-1)


def identity_f_form(spec: SemigroupSpec, cutoff: float = DEFAULT_CUTOFF) -> GenSeries:
    return f_form(spec, {}, cutoff)


def _outer_rows(coefs: np.ndarray, grid: ExponentGrid, sign: float = -1.0):
    """Grid indices, coefficients and powers 1 + sign g of the nonzero
    terms of a grid vector, by ascending exponent g."""
    index = np.flatnonzero(coefs)
    return index, coefs[index], 1.0 + sign * grid.values[index].astype(np.complex128)


def _outer_inner(a: np.ndarray, h: np.ndarray, grid: ExponentGrid):
    """The sub-grid that the terms of a and h generate, its indices in
    grid, and a and h on it, h with its constant term read as 0."""
    idx, sub = grid.generated(np.flatnonzero((a != 0) | (h != 0)))
    a, h = a[idx], h[idx]
    h[0] = 0.0
    return idx, sub, a, h


def _shifted_rows(a: np.ndarray, h: np.ndarray, grid: ExponentGrid,
                  sign: float) -> np.ndarray:
    """sum_g a_g w^g (1 + h)^(1 + sign g) on grid, h with no constant
    term: one power series per nonzero a_g, all filled together by the
    Euler-operator recurrence, then shifted by w^g and summed."""
    index, coef, betas = _outer_rows(a, grid, sign)
    P = _euler_rows(grid, h, betas, "power", shifts=index)
    i, r, k = _shift_pairs(grid, index)
    return _group_sum(k, coef[r] * P[r, i], len(grid))


@_quiet
def _compose_v(a: np.ndarray, h: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    idx, sub, a, h = _outer_inner(a, h, grid)
    return _checked(_full(idx, _shifted_rows(a, h, sub, -1.0), len(grid)), grid)


@_quiet
def _substitute_v(a: np.ndarray, h: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    """sum_g a_g w^g (1 + h)^(1 + g), with h's constant term read as 0:
    the moments M_a(w (1 + h)) (1 + h) of a monotone convolution.

    On a progression 0, s, ..., (n - 1) s it is a power series in x = w^s:
    with q = (1 + h)^s it is (1 + h) A(x q), A read by Horner's rule,
    r <- a_m + x q r for m = n - 2 .. 0, one convolution a step.  Step m
    keeps the n - m coefficients that x^m can still carry under the
    cutoff.  Elsewhere it runs one shifted row per term of a.  Both
    refuse what the rows would refuse, before any work."""
    idx, sub, a, h = _outer_inner(a, h, grid)
    if not sub.progression():
        return _checked(_full(idx, _shifted_rows(a, h, sub, 1.0), len(grid)), grid)
    n = len(sub)
    _check_cells(np.count_nonzero(a), sub)
    q = _euler_rows(sub, h, sub.values[1:2], "power")[0]
    r = a[n - 1:]
    for m in range(n - 2, -1, -1):
        nxt = np.empty(n - m, dtype=np.complex128)
        nxt[0] = a[m]
        nxt[1:] = np.convolve(q[:n - m - 1], r)[:n - m - 1]
        r = nxt
    h[0] = 1.0
    return _checked(_full(idx, np.convolve(h, r)[:n], len(grid)), grid)


def compose_F(outer: GenSeries, inner: GenSeries) -> GenSeries:
    """Composition of reciprocal-Cauchy forms: (outer o inner) as forms.

    With outer = z(1 + sum b_g z^-g) and inner = z(1 + h(1/z)), the
    composite form in w = 1/z is sum_g b_g w^g (1 + h)^(1-g): one power
    series per outer term, all filled together by the Euler-operator
    recurrence, then shifted by w^g and summed.
    """
    _require_f_form(outer, "compose_F")
    _require_f_form(inner, "compose_F")
    if outer.spec != inner.spec:
        raise IncompatibleSeriesError("compose_F: exponent semigroups differ")
    grid, a, h = _common_grid(outer, inner)
    return GenSeries._adopt(outer.spec, Variable.DESCENDING, Normalization.RAW,
                            _compose_v(a, h, grid), grid.cutoff, exponent_shift=-1)


@_quiet
def _online_form(forms: list, grid: ExponentGrid, double: bool = False) -> np.ndarray:
    """The form 1 + sum_s u_s, or 1 + 2 u with ``double``, with the tails
    u_s that one online pass of ``_euler_rows`` finds for one or two
    forms 1 + sum_g c_g w^g, grid vectors of unit constant term: one form
    gives u = sum_g c_g w^g (1 + u)^(1 - g), and two give
    u_1 = sum_g c2_g w^g (1 + u_2)^(1 - g) and
    u_2 = sum_g c1_g w^g (1 + u_1)^(1 - g), on the sub-grid that their
    tails generate."""
    # the first row of each form is the unit at exponent 0, not a tail term
    rows = [[x[1:] for x in _outer_rows(a, grid)] for a in forms]
    index, coef, betas = (np.concatenate(x) for x in zip(*rows))
    out = np.zeros(len(grid), dtype=np.complex128)
    if len(index):
        idx, sub = grid.generated(index)
        u = np.zeros((len(forms), len(sub)), dtype=np.complex128)
        split = len(rows[0][0]) if len(forms) > 1 else None
        _euler_rows(sub, u if split is not None else u[0], betas, "power",
                    shifts=np.searchsorted(idx, index), tail_coef=coef, split=split)
        out[idx] = u.sum(0)
    if double:  # u + u, as two equal sets add up, also where u overflows
        out += out
    out[0] += 1.0
    return _checked(out, grid)


def _revert_v(a: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    # the inverse z (1 + f) of z (1 + t) has f = -sum_g t_g w^g (1 + f)^(1 - g)
    return _online_form([-a], grid)


def _subordinate_v(a: np.ndarray, b: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    """The reciprocal-Cauchy form of a free convolution, from the forms
    a = z (1 + t1) and b = z (1 + t2) of its operands, by subordination:
    z (1 + f + tau), with the subordination function omega_1 = z (1 + f)
    and omega_2 = z + h1(omega_1) = z (1 + tau), where
    f = sum_g t2_g w^g (1 + tau)^(1 - g) and tau = sum_g t1_g w^g
    (1 + f)^(1 - g), both found in one online pass.  Where b is a, f and
    tau are equal, and one set of rows finds f: the form is z (1 + 2 f),
    bit for bit what the two sets give on equal operands."""
    return _online_form([a], grid, double=True) if b is a else _online_form([a, b], grid)


def revert_F(F: GenSeries) -> GenSeries:
    """Compositional inverse of a reciprocal-Cauchy form.

    Writing F = z(1 + sum_{g>0} b_g z^-g) and the inverse as
    z(1 + f(1/z)), the tail solves f = -sum_g b_g w^g (1 + f)^(1-g).
    The coefficient of f at an exponent needs the powers (1 + f)^(1-g)
    only at smaller exponents, so one pass over the grid's exponents
    finds f and extends every power together.  The closing residual check
    recomputes the right-hand side from the finished powers; a residual
    that is not finite passes it, and the finite check after it refuses
    the overflowed inverse.
    """
    _require_f_form(F, "revert_F")
    if not F.coefs[1:].any():
        return F
    return _like(F, _revert_v(F.coefs, F.grid()))


# -- evaluation --------------------------------------------------------


def _branch_log(z: complex, branch: Branch) -> complex:
    if branch is Branch.PRINCIPAL:
        if z.imag == 0.0 and z.real <= 0.0:
            raise DomainBranchError(
                "principal branch excludes the cut (-inf, 0]; got %r" % (z,))
        return cmath.log(z)
    if branch is Branch.MONOTONE:
        if z.imag == 0.0 and z.real >= 0.0:
            raise DomainBranchError(
                "monotone branch excludes the cut [0, inf); got %r" % (z,))
        L = cmath.log(z)
        if L.imag >= 0.0:
            L -= 2j * math.pi
        return L
    raise InvalidArgumentError("unknown branch %r" % (branch,))


def growth_fit(f: GenSeries, top: float = math.inf) -> GrowthBound:
    """Geometric coefficient bound A = max |c_gamma|^(1/gamma) over
    retained positive exponents (stored keys), those up to ``top`` if
    given: the fit of the series truncated where its grid keeps no
    exponent past top, without building that grid."""
    if not f.terms:
        raise InvalidArgumentError("growth_fit needs a non-empty series")
    A = 0.0
    for g, c in f.terms.items():
        if g > top:
            break
        if g > 0 and c != 0:
            A = max(A, abs(c) ** (1.0 / g))
    return GrowthBound(A=A)


def divergence_guard_radius(f: GenSeries) -> float:
    """|z| must exceed this for a DESCENDING partial sum to be trusted."""
    return guard_radius(f.spec, growth_fit(f).A, max(1, int(math.ceil(f.cutoff))))


def _poisson_tail(N: int, x: float) -> float:
    """sum_{k >= N} x^k / k! = exp(x) P(N, x) for 0 < x <= 700, with P the
    regularized lower incomplete Gamma function.

    For N <= x the head sum_{k < N} is at most about half of exp(x), so
    subtracting it from exp(x) cannot cancel.  Otherwise every ratio
    x / (k + 1) of the tail is below 1, and it is summed forward from its
    k = N term until the terms stop counting.  That term is built as the
    product of the x / k, which keeps it to about N ulps where
    exp(N log x - lgamma(N + 1)) loses 1e-13 at small x.
    """
    head, term = 0.0, 1.0
    for k in range(1, N + 1):
        head += term
        term *= x / k
    if N <= x:
        return math.exp(x) - head
    total, k = 0.0, N
    while term > total * 1e-17:
        total += term
        k += 1
        term *= x / k
    return total


def _tail_bound(f: GenSeries, absz: float, growth: GrowthBound, c: float) -> float:
    """Conservative bound on the mass of discarded terms beyond the cutoff,
    with c the density constant of f's semigroup up to its cutoff."""
    A = growth.A
    if A == 0.0:
        return 0.0
    N = int(math.ceil(f.cutoff))
    if f.variable is Variable.DESCENDING:
        sigma = c * A / absz
        if sigma >= 1.0:
            return math.inf
        return absz ** (-f.exponent_shift) * c * sigma ** N / (1.0 - sigma)
    x = c * A * absz
    if f.normalization is Normalization.GAMMA:
        if x > 700.0:
            # exp(x) alone overflows; the Poisson tail sum_{k>N} x^k/k! it
            # bounds is astronomical unless N comfortably exceeds x
            if x >= N + 2.0:
                return math.inf
            try:
                lead = math.exp((N + 1.0) * math.log(x) - math.lgamma(N + 2.0))
            except OverflowError:  # the lead term alone is past the largest float
                return math.inf
            return c * lead / (1.0 - x / (N + 2.0))
        return c * _poisson_tail(N, x)
    sigma = x
    if sigma >= 1.0:
        return math.inf
    return c * sigma ** N / (1.0 - sigma)


# below this real part np.exp and cmath.exp round alike; from log(DBL_MAX / 4)
# = 708.4 on cmath.exp rescales, and past 709.8 it raises OverflowError
_EXP_SAFE = 708.0
_LOG_DBL_MAX = math.log(sys.float_info.max)


class _EvalPlan(NamedTuple):
    """What ``evaluate`` reads of a series, computed once per series."""

    powers: np.ndarray         # sign * (gamma + shift) by ascending gamma; sign -1 if DESCENDING
    reach: float               # max |power|; 0 when no term needs the log
    scaled: np.ndarray         # c / Gamma(gamma + 1) under GAMMA normalization, else c
    safe: float                # below this real part of a power, no sum overflows
    growth: GrowthBound        # the growth fit
    c: float                   # density constant up to the cutoff
    guard_scale: float         # guard radius per unit of A (it is linear in A)


def _eval_plan(f: GenSeries) -> _EvalPlan:
    """The evaluation plan of f, built on first use and kept on f; terms
    are never changed after construction, so it cannot go stale."""
    plan = f.__dict__.get("_plan")
    if plan is None:
        keys = list(f.terms)  # ascending
        scaled = np.array(list(f.terms.values()), dtype=np.complex128)
        if f.normalization is Normalization.GAMMA:
            scaled /= [gamma_factor(k + 1.0) for k in keys]
        sign = 1.0 if f.variable is Variable.ASCENDING else -1.0
        powers = np.array([sign * (k + f.exponent_shift) for k in keys])
        horizon = max(1, int(math.ceil(f.cutoff)))
        # n terms of modulus below big e^safe sum to below the largest double
        big = float(np.max(np.abs(scaled), initial=0.0))
        safe = min(_EXP_SAFE, _LOG_DBL_MAX - math.log(big) - math.log(len(keys))) \
            if big else _EXP_SAFE
        plan = _EvalPlan(
            powers=powers, reach=float(np.max(np.abs(powers), initial=0.0)), scaled=scaled,
            safe=safe,
            growth=growth_fit(f) if keys else GrowthBound(0.0),
            c=density_constant(f.spec, horizon),
            guard_scale=guard_radius(f.spec, 1.0, horizon))
        f.__dict__["_plan"] = plan
    return plan


def evaluate(f: GenSeries, z: complex, branch: Branch = Branch.PRINCIPAL) -> EvalResult:
    """Partial sum at z with powers on the chosen branch.

    Exponent-zero terms never touch the log.  DESCENDING series emit a
    DivergenceGuardWarning inside |z| <= 1.25 * c * A; the value is
    still returned.  The tail bound is a conservative estimate of the
    discarded terms' total mass from the fitted growth bound; it is
    computed when ``tail_bound`` is first read.  A z that is not finite
    raises InvalidArgumentError, and a power or a sum past double range
    raises OverflowError.

    The value is one dot product of the powers z^(+-(gamma + shift)) with
    the plan's coefficients, divided by Gamma(gamma + 1) once per series
    under GAMMA normalization.  Like a term-by-term loop, and in another
    order, it sums the terms t_k to within n u sum |t_k| (Higham,
    Accuracy and Stability, 3.1).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidArgumentError("cannot evaluate a series at %r" % (z,))
    plan = _eval_plan(f)
    L = _branch_log(z, branch) if plan.reach else 0j
    arg = plan.powers * L
    if plan.reach * abs(L.real) < plan.safe:
        s = complex(np.dot(np.exp(arg), plan.scaled))
    else:  # a power or the sum near or past overflow: round and raise as cmath does
        w = np.array([cmath.exp(a) for a in arg.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):
            s = complex(np.dot(w, plan.scaled))
        if not cmath.isfinite(s):
            raise OverflowError("the partial sum at %r is past double range" % (z,))
    # 0.0 + s: a sum of terms never ends on -0.0 when it starts from 0j
    total = complex(0.0 + s.real, 0.0 + s.imag)
    absz = abs(z)
    if f.variable is Variable.DESCENDING:
        radius = plan.guard_scale * plan.growth.A
        if absz <= radius:
            warnings.warn(DivergenceGuardWarning(
                "|z| = %g is inside the divergence guard radius %g; partial sum "
                "carries no convergence guarantee" % (absz, radius)))
    if absz == 0:
        return EvalResult(value=total, tail_bound=math.inf)
    res = object.__new__(EvalResult)  # the bound waits for its first read
    res.__dict__.update(value=total, _bound_args=(f, absz, plan.growth, plan.c))
    return res


def _evaluate_many(f: GenSeries, t: np.ndarray) -> np.ndarray:
    """Partial sums of f at the real points t > 0, principal branch, in
    one product: exp(log t ⊗ powers) @ scaled, with the plan's scaled
    coefficients that ``evaluate`` reads.  For quadrature nodes; no tail
    bound.  A power that underflows reads 0; where a power or the sum
    may overflow, the nodes go through ``evaluate``, which raises as it
    does."""
    plan = _eval_plan(f)
    arg = np.multiply.outer(np.log(t), plan.powers)
    if np.max(arg, initial=0.0) >= plan.safe:
        return np.array([evaluate(f, x).value for x in t.tolist()], dtype=np.complex128)
    # two real products: numpy's real-by-complex one is far slower
    v = np.exp(arg) @ plan.scaled.view(np.float64).reshape(len(plan.scaled), 2)
    return v[:, 0] + 1j * v[:, 1]
