"""Constructors for the concrete law families.

The four stable laws are declared by their transforms: the classical one
by exp(i gamma z + i^alpha b z^alpha), the free one by its Voiculescu
series -gamma + b z^(1-alpha), the Boolean one by F(z) = z + gamma -
b z^(1-alpha), the monotone one by F(z) = (z^alpha - b)^(1/alpha).  With
no drift gamma, each law's moments on the multiples of alpha have a
closed form, which its constructor writes with no series kernel.  A
drift translates a classical or free law, one GAMMA product with a point
mass; a Boolean law with drift is the reciprocal of its form.  Stable
mixtures and
the mu^alpha_{b,r} family are explicit series with known coefficients.
The positive stable, supremum and last-passage densities are each a
PowerSumDensity, sum_k c_k x^(-p_k) above a guard radius x_min; their
builders refuse a coefficient that is not finite in double precision.

The admissible phase window for b (classical/free/Boolean kinds):
arg b in [(1-alpha)pi, pi] for alpha in (0,1], and in [0, (2-alpha)pi]
for alpha in (1,2].  At alpha = 1 both windows are [0, pi] and every
admissible law is a point mass or a Cauchy law.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import (
    InvalidArgumentError,
    OutsideValidityRegionError,
    ResonanceError,
    ResourceGuardError,
)
from .semigroup import (
    MAX_PAIRS,
    MERGE_REL_TOL,
    ExponentGrid,
    SemigroupSpec,
    exponent_grid,
    guard_radius,
)
from .series import (
    _CHUNK_CELLS,
    DEFAULT_CUTOFF,
    Branch,
    GenSeries,
    Normalization,
    Variable,
    _finite,
    _positive_cutoff,
    _power_v,
    _product_v,
    _quiet,
    _seeded,
    binomial_power,
    gamma_factor,
    growth_fit,
)
from .transforms import (
    MomentSeries,
    TailDensityModel,
    _moments,
    _moments_from_F_v,
    moment_series,
    tail_from_moments,
)

RESONANCE_TOL = 1e-8
_PHASE_TOL = 1e-12
_TINY = np.finfo(np.float64).tiny  # the smallest normal double
# hard cap on the (M + 1) N coefficients of one supremum density series
MAX_SUPREMUM_TERMS = 100_000


class StableKind(Enum):
    CLASSICAL = "classical"
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"


@dataclass(frozen=True)
class StableParams:
    alpha: float
    b: complex = 0j
    gamma_shift: float = 0.0
    kind: StableKind = StableKind.CLASSICAL

    def __post_init__(self):
        alpha = float(self.alpha)
        if not 0.0 < alpha <= 2.0:
            raise InvalidArgumentError("stability index must lie in (0, 2], got %r" % alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "gamma_shift", float(self.gamma_shift))
        if self.kind is not StableKind.MONOTONE:
            _require_admissible_phase(alpha, self.b)


def _require_admissible_phase(alpha: float, b: complex) -> None:
    if b == 0:
        return
    w = cmath.phase(b)
    if alpha <= 1.0:
        lo, hi = (1.0 - alpha) * math.pi, math.pi
    else:
        lo, hi = 0.0, (2.0 - alpha) * math.pi
    if not (lo - _PHASE_TOL <= w <= hi + _PHASE_TOL):
        raise InvalidArgumentError(
            "arg b = %g is outside the admissible window [%g, %g] for alpha = %g"
            % (w, lo, hi, alpha))


def scale_skew_to_b(alpha: float, c: float, beta_hat: float) -> complex:
    """Convert the (scale, skew) parametrization: i^alpha b = -c (1 - i beta_hat tan(pi alpha/2))."""
    if c < 0:
        raise InvalidArgumentError("scale must be non-negative")
    if not -1.0 <= beta_hat <= 1.0:
        raise InvalidArgumentError("skew must lie in [-1, 1]")
    if alpha == 1.0 and beta_hat != 0.0:
        raise InvalidArgumentError(
            "alpha = 1 with nonzero skew produces a logarithmic term; not representable")
    rhs = -c * (1.0 - 1j * beta_hat * math.tan(math.pi * alpha / 2.0))
    return rhs * cmath.exp(-1j * math.pi * alpha / 2.0)


@dataclass(frozen=True)
class MembershipDiagnosis:
    """Growth-fit stability across two truncations of the same series.

    A fit that keeps rising as the cutoff grows diagnoses a series
    whose coefficients escape every geometric bound.
    """

    A_coarse: float
    A_fine: float
    relative_increase: float
    cutoff_stable: bool
    note: str


def _diagnose(m: MomentSeries) -> MembershipDiagnosis:
    fine = growth_fit(m.series).A
    # the fit of m.series.truncated(m.cutoff / 2.0), which builds a grid
    coarse = growth_fit(m.series, m.series.grid().top(m.cutoff / 2.0)).A
    rel = (fine - coarse) / coarse if coarse > 0 else 0.0
    stable = rel < 0.05
    note = ("coefficient growth stable under cutoff refinement" if stable else
            "growth fit increases %.1f%% under cutoff refinement; no geometric "
            "coefficient bound" % (100.0 * rel))
    return MembershipDiagnosis(A_coarse=coarse, A_fine=fine,
                               relative_increase=rel, cutoff_stable=stable, note=note)


@_quiet
def _closed_form_v(grid: ExponentGrid, kind: StableKind, alpha: float,
                   b: complex) -> np.ndarray:
    """The moments of the drift-free stable law of ``kind`` as one checked
    vector on ``grid``.  They live on the multiples alpha k of alpha, the
    sub-grid that alpha generates (on a grid that merged exponents, those
    among its exponents that lie on a multiple), where they are b^k times

    * classical, exp(i^alpha b z^alpha): Gamma(alpha k + 1) / k!, since
      the phases i^(alpha k) of the coefficients and the moments cancel;
    * Boolean, F = z - b z^(1-alpha): 1;
    * monotone, F = (z^alpha - b)^(1/alpha): (1/alpha)_k / k!, a rising
      factorial;
    * free, phi = b z^(1-alpha): C(alpha k, k - 1) / k, by Lagrange
      inversion of z + b z^(1-alpha);

    and 0 elsewhere.  At alpha = 1 and a real b the Boolean form z - b is
    the point mass at b, with moments b^k on the integers.
    """
    out = np.zeros(len(grid), dtype=np.complex128)
    out[0] = 1.0
    at = grid.index_of(alpha)
    if at < 0 or b == 0:  # alpha is past the cutoff, or the law is a point mass
        return _finite(out, grid.spec, grid.cutoff)
    idx, sub = grid.generated([at])
    tau = sub.values
    if not sub.merged:  # the multiples alpha k, k = 0 .. K, at index k
        k, ks = np.arange(len(tau), dtype=np.float64), slice(None)
    else:  # the whole merged grid: those of its exponents on a multiple
        k = np.rint(tau / alpha)
        on = np.abs(tau - alpha * k) <= MERGE_REL_TOL * np.maximum(1.0, tau)
        idx, tau, k = idx[on], tau[on], k[on]
        ks = k.astype(np.intp)
    K = int(k[-1])
    fac = np.ones(len(k))
    if kind is StableKind.CLASSICAL:
        fac[1:] = _gamma_ratios(tau[1:], k[1:])
    elif kind is StableKind.MONOTONE:
        j = np.arange(K, dtype=np.float64)
        fac = np.cumprod(np.append(1.0, (1.0 / alpha + j) / (j + 1.0)))[ks]
    elif kind is StableKind.FREE:
        fac[1:] = _free_binomials(tau[1:], k[1:], grid)
    powers = np.full(K + 1, complex(b))
    powers[0] = 1.0
    powers = np.cumprod(powers)[ks]
    m = powers * fac
    # where b^k or its factor has left the normal doubles, their product
    # need not have: it is taken in logs
    ok, mag, size = np.isfinite(m), np.abs(powers), np.abs(fac)
    if not (ok.all() and mag.min() >= _TINY and size.min() >= _TINY):
        lost = np.flatnonzero(~ok | (mag < _TINY) | (size < _TINY))
        logs = ([math.lgamma(t + 1.0) - math.lgamma(n + 1.0)
                 for t, n in zip(tau[lost].tolist(), k[lost].tolist())]
                if kind is StableKind.CLASSICAL else np.log(fac[lost] + 0j))
        m[lost] = np.exp(k[lost] * np.log(complex(b)) + logs)
    out[idx] = m
    return _finite(out, grid.spec, grid.cutoff)


def _gamma_ratios(tau: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Gamma(tau + 1) / k! at the exponents tau of alpha k, k >= 1: both
    gammas while they are finite, and the difference of their logs past
    that, which is exactly 0 at alpha = 1, so no ratio is inf / inf.
    Gamma is read at the grid's tau + 1, where a GAMMA product reads it."""
    xs, ns = (tau + 1.0).tolist(), (k + 1.0).tolist()
    out = np.array([math.gamma(x) / math.gamma(n) if x < 171.0 and n < 171.0 else math.inf
                    for x, n in zip(xs, ns)])
    big = np.flatnonzero(out == math.inf).tolist()
    if big:
        out[big] = np.exp([math.lgamma(xs[i]) - math.lgamma(ns[i]) for i in big])
    return out


def _free_binomials(tau: np.ndarray, k: np.ndarray, grid: ExponentGrid) -> np.ndarray:
    """C(tau_r, k_r - 1) / k_r for k_r >= 1, each a product of the ratios
    (tau - i) / (i + 1) over i < k - 1: exactly 0 where tau is an integer
    below k - 1, which a ratio of gammas would leave to roundoff."""
    K = int(k[-1])
    factors = K * (K - 1) // 2
    if factors > MAX_PAIRS:
        raise ResourceGuardError(
            "the free stable moments up to exponent %g of %s take %d binomial factors, "
            "more than the limit of %d" % (tau[-1], grid.spec.describe(), factors, MAX_PAIRS))
    i = np.arange(max(K - 1, 0), dtype=np.float64)
    out = np.empty(len(k))
    step = max(1, _CHUNK_CELLS // max(K, 1))
    for r in range(0, len(k), step):
        t, n = tau[r:r + step, None], k[r:r + step, None]
        ratios = np.where(i < n - 1.0, (t - i) / (i + 1.0), 1.0)
        out[r:r + step] = ratios.prod(1) / n[:, 0]
    return out


def _stable_moments(kind: StableKind, alpha: float, b: complex, cutoff: float,
                    at: float = 0.0) -> MomentSeries:
    """The closed-form moments of the stable law of ``kind``, translated by
    ``at``: convolved with the point mass there, which translates a law
    under the classical and the free convolution alike."""
    grid = _law_grid(alpha, cutoff)
    moments = _closed_form_v(grid, kind, alpha, b)
    if at != 0.0:
        mass = _closed_form_v(grid, StableKind.BOOLEAN, 1.0, at)
        moments = _product_v(moments, mass, grid, Normalization.GAMMA)
    return _moments(moments, grid.spec, grid.cutoff)


def _law_grid(alpha: float, cutoff: float) -> ExponentGrid:
    if not 0.0 < alpha <= 2.0:
        raise InvalidArgumentError("stability index must lie in (0, 2]")
    return exponent_grid(SemigroupSpec.with_alphas(alpha), _positive_cutoff(cutoff))


def classical_stable(params: StableParams, cutoff: float = DEFAULT_CUTOFF
                     ) -> tuple[MomentSeries, MembershipDiagnosis]:
    """Moments of the classical stable law with transform
    exp(i gamma z + i^alpha b z^alpha), plus a growth diagnosis: those of
    exp(i^alpha b z^alpha), translated by gamma."""
    if params.kind is not StableKind.CLASSICAL:
        raise InvalidArgumentError("params.kind must be CLASSICAL")
    m = _stable_moments(StableKind.CLASSICAL, params.alpha, params.b, cutoff,
                        params.gamma_shift)
    return m, _diagnose(m)


def classical_stable_scale_skew(alpha: float, c: float, beta_hat: float,
                                gamma_shift: float = 0.0,
                                cutoff: float = DEFAULT_CUTOFF
                                ) -> tuple[MomentSeries, MembershipDiagnosis]:
    b = scale_skew_to_b(alpha, c, beta_hat)
    return classical_stable(StableParams(alpha, b, gamma_shift), cutoff)


def free_stable(params: StableParams, cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    """Free stable law declared by its Voiculescu series -gamma + b z^(1-alpha):
    the law of b z^(1-alpha), translated by -gamma, since the point mass
    at -gamma has the Voiculescu series -gamma."""
    if params.kind is not StableKind.FREE:
        raise InvalidArgumentError("params.kind must be FREE")
    return _stable_moments(StableKind.FREE, params.alpha, params.b, cutoff,
                           -params.gamma_shift)


def boolean_stable(params: StableParams, cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    """Boolean stable law: F(z) = z + gamma - b z^(1-alpha).  With a drift
    its moments are the reciprocal of that form: they have no closed form
    on the multiples of alpha."""
    if params.kind is not StableKind.BOOLEAN:
        raise InvalidArgumentError("params.kind must be BOOLEAN")
    alpha, b, g0 = params.alpha, params.b, params.gamma_shift
    if g0 == 0.0:
        return _stable_moments(StableKind.BOOLEAN, alpha, b, cutoff)
    tail = {1.0: complex(g0)}
    tail[alpha] = tail.get(alpha, 0j) - b
    grid, form = _seeded(SemigroupSpec.with_alphas(alpha), cutoff, {0.0: 1.0 + 0j, **tail})
    return _moments_from_F_v(form, grid)


def monotone_stable_form(alpha: float, b: complex,
                         cutoff: float = DEFAULT_CUTOFF) -> tuple[GenSeries, Branch]:
    """Reciprocal-Cauchy form of the monotone stable law,
    F(z) = (z^alpha - b)^(1/alpha), with its evaluation branch.

    Powers for monotone laws live on the branch with Im log z in
    (-2 pi, 0), which is what the returned Branch records.
    """
    alpha = float(alpha)
    grid = _law_grid(alpha, cutoff)
    _, base = _seeded(grid.spec, grid.cutoff, {0.0: 1.0 + 0j, alpha: -complex(b)})
    return GenSeries._adopt(grid.spec, Variable.DESCENDING, Normalization.RAW,
                            _power_v(base, grid, 1.0 / alpha), grid.cutoff,
                            exponent_shift=-1), Branch.MONOTONE


def monotone_stable(alpha: float, b: complex,
                    cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    """Moments of the monotone stable law, (1 - b z^(-alpha))^(-1/alpha)
    in closed form."""
    return _stable_moments(StableKind.MONOTONE, float(alpha), complex(b), cutoff)


def _finite_coefficient(c: float, order: int | tuple[int, int]) -> float:
    if not math.isfinite(c):
        raise ResourceGuardError(
            "the coefficient of order %s is %r in double precision; lower the "
            "truncation order below this limit" % (order, c))
    return c


class PowerSumDensity:
    """A density sum_k c_k x^(-p_k), a finite mixture of Pareto densities,
    trusted only for x above the guard radius x_min.

    The terms are summed in stored order.  ``edge`` flags the terms on
    the truncation boundary, whose size bounds what was dropped; a
    series with no flags has no remainder estimate.
    """

    def __init__(self, powers, coefs, x_min: float, edge=()):
        self.powers = tuple(powers)
        self.coefs = tuple(coefs)
        self.x_min = float(x_min)
        self.edge = tuple(edge)

    def density(self, x: float) -> float:
        x = float(x)
        if x <= self.x_min:
            raise OutsideValidityRegionError(
                "series density is trusted only for x > %g" % self.x_min)
        return sum(c * x ** -p for p, c in zip(self.powers, self.coefs))

    def remainder_estimate(self, x: float) -> float:
        """Twice the absolute sum of the edge terms: the dropped terms are
        dominated by the outermost retained ones."""
        x = float(x)
        return 2.0 * sum(abs(c * x ** -p)
                         for p, c, e in zip(self.powers, self.coefs, self.edge) if e)

    __call__ = density


def positive_stable_density(alpha: float, cutoff: float = DEFAULT_CUTOFF
                            ) -> PowerSumDensity:
    """Density series of the one-sided alpha-stable law, 0 < alpha < 1:

        (1/pi) sum_{n>=1} (-1)^(n-1) sin(pi alpha n) Gamma(n alpha + 1)/n! x^(-1-n alpha)

    over n alpha <= cutoff, valid for x above the divergence guard x_min.
    A cutoff below alpha keeps no term and is refused.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("one-sided stable laws need alpha in (0, 1)")
    cutoff = float(cutoff)
    if not math.isfinite(cutoff) or cutoff <= 0:
        raise InvalidArgumentError("cutoff must be a positive real")
    if cutoff < alpha:
        raise InvalidArgumentError(
            "cutoff %g is below alpha %g, so the density series keeps no term"
            % (cutoff, alpha))
    # the grid behind the guard radius holds more than cutoff / alpha points,
    # so its budget check refuses a runaway loop before it starts
    unit_radius = guard_radius(SemigroupSpec.with_alphas(alpha), 1.0,
                               max(1, int(math.ceil(cutoff))))
    powers, coefs = [], []
    A = 0.0
    n = 1
    while n * alpha <= cutoff:
        e = n * alpha
        # at integral n alpha, sin(pi n alpha) is exactly zero and float
        # evaluation must not leave a ~1e-16 ghost term
        if e != round(e):
            mag = gamma_factor(e + 1.0) / gamma_factor(n + 1.0)
            coef = math.sin(math.pi * e) * mag / math.pi
            coef = _finite_coefficient(-coef if n % 2 == 0 else coef, n)
            if coef != 0.0:
                powers.append(1.0 + e)
                coefs.append(coef)
            A = max(A, mag ** (1.0 / e))
        n += 1
    return PowerSumDensity(powers, coefs, unit_radius * A)


def stable_mixture(nu_moments: Iterable[float], alpha: float,
                   cutoff: float = DEFAULT_CUTOFF
                   ) -> tuple[MomentSeries, TailDensityModel]:
    """Mixture of symmetric alpha-stable laws with mixing moments m_n(nu):
    the Fourier side is sum (-1)^n m_n(nu) z^(alpha n) / n! for z > 0.

    Moments: m_{alpha n} = (-1)^n m_n(nu) Gamma(alpha n + 1) e^(-i pi alpha n / 2) / n!.
    The phase converts the real Fourier coefficients to gamma-complex
    moments (at alpha = 1, nu = delta_1 this lands on the Cauchy law).
    Only the m_n(nu) with alpha n up to the cutoff are read, so
    nu_moments may be an endless iterator.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("mixture index must lie in (0, 1]")
    spec = SemigroupSpec.with_alphas(alpha)
    exponent_grid(spec, cutoff)  # the grid budget, before the moments are read
    nu = [float(v) for v in itertools.islice(nu_moments, int(cutoff // alpha) + 2)]
    if not nu or nu[0] != 1.0:
        raise InvalidArgumentError("mixing moments must start with m_0(nu) = 1")
    terms: dict[float, complex] = {}
    for n, mn in enumerate(nu):
        e = alpha * n
        if e > cutoff:
            break
        coef = ((-1) ** n) * mn * gamma_factor(e + 1.0) / gamma_factor(n + 1.0)
        terms[e] = coef * cmath.exp(-1j * math.pi * e / 2.0)
    m = moment_series(spec, terms, cutoff)
    return m, tail_from_moments(m)


@dataclass(frozen=True)
class SupremumSeriesParams:
    alpha: float
    rho: float
    M: int = 12
    N: int = 12

    def __post_init__(self):
        if not 0.0 < float(self.alpha) < 1.0:
            raise InvalidArgumentError("supremum series needs alpha in (0, 1)")
        if not 0.0 < float(self.rho) < 1.0:
            raise InvalidArgumentError("positivity parameter rho must lie in (0, 1)")
        if int(self.M) < 0 or int(self.N) < 1:
            raise InvalidArgumentError("truncation orders must be non-negative (N >= 1)")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "N", int(self.N))


def supremum_coefficient(alpha: float, rho: float, m: int, n: int) -> float:
    """Coefficient b_{m,n} of the supremum density series:

        (-1)^(m+n) / (Gamma(1 + m/alpha + n) Gamma(-m - alpha n))
        * prod_{j=1..m} sin(pi (alpha rho + j - 1)/alpha) / sin(pi j / alpha)
        * prod_{j=1..n} sin(pi alpha (rho + j - 1)) / sin(pi alpha j)
    """
    return _supremum_term(alpha, m, n, *_sine_products(alpha, rho, m, n))


def _sine_products(alpha: float, rho: float, M: int, N: int):
    """The two sine products of b_{m,n} for every m <= M and n <= N,
    as prefix lists, after checking each denominator for resonance."""
    P, Q = [1.0], [1.0]
    for j in range(1, M + 1):
        s = math.sin(math.pi * j / alpha)
        if abs(s) < RESONANCE_TOL:
            raise ResonanceError(
                "sin(pi %d / alpha) vanishes; alpha = %g is effectively rational"
                % (j, alpha))
        P.append(P[-1] * math.sin(math.pi * (alpha * rho + j - 1.0) / alpha) / s)
    for j in range(1, N + 1):
        s = math.sin(math.pi * alpha * j)
        if abs(s) < RESONANCE_TOL:
            raise ResonanceError(
                "sin(pi alpha %d) vanishes; alpha = %g is effectively rational"
                % (j, alpha))
        Q.append(Q[-1] * math.sin(math.pi * alpha * (rho + j - 1.0)) / s)
    return P, Q


def _supremum_term(alpha: float, m: int, n: int, P: list, Q: list) -> float:
    return (-1.0) ** (m + n) * P[m] * Q[n] / (
        gamma_factor(1.0 + m / alpha + n) * gamma_factor(-m - alpha * n))


def supremum_density(params: SupremumSeriesParams) -> PowerSumDensity:
    """Truncated double series for the supremum density,
    x^(-1-alpha) * sum_{m<=M, 1<=n<=N} b_{m,n} x^(-m-(n-1) alpha), with
    the outermost row m = M and column n = N as its edge."""
    count = (params.M + 1) * params.N
    if count > MAX_SUPREMUM_TERMS:
        raise ResourceGuardError(
            "a supremum series with M = %d, N = %d has %d coefficients, over "
            "the limit of %d" % (params.M, params.N, count, MAX_SUPREMUM_TERMS))
    a, M, N = params.alpha, params.M, params.N
    P, Q = _sine_products(a, params.rho, M, N)
    powers, coefs, edge = [], [], []
    A = 0.0
    for m in range(M + 1):
        for n in range(1, N + 1):
            c = _finite_coefficient(_supremum_term(a, m, n, P, Q), (m, n))
            powers.append(1.0 + m + n * a)
            coefs.append(c)
            edge.append(m == M or n == N)
            if c != 0.0:
                A = max(A, abs(c) ** (1.0 / (m + n * a)))
    return PowerSumDensity(powers, coefs, guard_radius(SemigroupSpec.with_alphas(a), A, 24),
                           edge)


@dataclass(frozen=True)
class LastPassageParams:
    alpha: float
    d: int
    M: int = 20

    def __post_init__(self):
        if int(self.d) != self.d or int(self.d) < 2:
            raise InvalidArgumentError("dimension d must be an integer >= 2")
        if not 1.0 < float(self.alpha) < float(self.d):
            raise InvalidArgumentError("last passage needs 1 < alpha < d")
        if int(self.M) < 0:
            raise InvalidArgumentError("truncation order must be non-negative")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "M", int(self.M))


def last_passage_coefficient(alpha: float, d: int, m: int) -> float:
    """Coefficient of t^(-(d+2m)/alpha):
    2/(alpha Gamma((d-alpha)/2)) * (-1)^m Gamma((d+2m)/alpha) / (m! Gamma((d-alpha)/2 + m + 1))."""
    lead = 2.0 / (alpha * gamma_factor((d - alpha) / 2.0))
    val = lead * ((-1.0) ** m) * gamma_factor((d + 2.0 * m) / alpha)
    val /= gamma_factor(m + 1.0) * gamma_factor((d - alpha) / 2.0 + m + 1.0)
    return val


def last_passage_density(params: LastPassageParams) -> PowerSumDensity:
    """Series density of the last passage time, exponents (d+2m)/alpha."""
    a, d = params.alpha, params.d
    powers, coefs = [], []
    A = 0.0
    for m in range(params.M + 1):
        e = (d + 2.0 * m) / a
        c = _finite_coefficient(last_passage_coefficient(a, d, m), m)
        powers.append(e)
        coefs.append(c)
        if c != 0.0 and e > 1.0:
            A = max(A, abs(c) ** (1.0 / (e - 1.0)))
    return PowerSumDensity(powers, coefs,
                           guard_radius(SemigroupSpec.with_alphas(1.0 / a), A, 24))


def mu_br(alpha: float, b: complex, r: float,
          cutoff: float = DEFAULT_CUTOFF) -> GenSeries:
    """Stieltjes series of the mu^alpha_{b,r} family, whose transform is

        G(z) = r^(1/alpha) * ((1 - (1 - b z^-alpha)^(1/r)) / b)^(1/alpha).

    Peeling one factor of z^-alpha out of the inner bracket shows
    G = (1/z) (1 + h)^(1/alpha) with h of positive order, so the series
    is one binomial power inside another; the leading coefficient is
    exactly 1 by construction.
    """
    alpha = float(alpha)
    r = float(r)
    b = complex(b)
    if b == 0:
        raise InvalidArgumentError("b must be nonzero")
    if r < 1.0:
        raise InvalidArgumentError("parameter r must satisfy r >= 1")
    if not 0.0 < alpha <= 2.0:
        raise InvalidArgumentError("alpha must lie in (0, 2]")
    _require_admissible_phase(alpha, b)
    spec = SemigroupSpec.with_alphas(alpha)
    # the inner power runs alpha past the cutoff, so that the last term keeps
    # its share once one factor of b z^-alpha is divided out
    base = GenSeries(spec, Variable.DESCENDING, Normalization.RAW,
                     {0.0: 1.0 + 0j, alpha: -b}, cutoff + alpha)
    inner = binomial_power(base, 1.0 / r)
    grid = inner.grid()
    # u = 1 - inner has order alpha; divide out the monomial w^alpha
    shifted: dict[float, complex] = {}
    for k, c in inner.terms.items():
        if k == 0.0:
            c = c - 1.0
            if c == 0:
                continue
        kk = k - alpha
        if kk < -1e-12:
            raise InvalidArgumentError("inner expansion has unexpected low-order term")
        shifted[grid.canonical(max(kk, 0.0))] = -c
    if not shifted:
        # b z^-alpha fully cancels only if the law degenerates; G = 1/z
        return inner.with_terms({0.0: 1.0 + 0j}, cutoff=cutoff, exponent_shift=1)
    lead = shifted.get(0.0, 0j)
    if lead == 0:
        raise InvalidArgumentError("leading mixture coefficient vanished")
    # algebraically lead == b/r, so no compensating prefactor is needed;
    # lead / lead need not round to exactly 1, so the constant is set
    scaled = {k: c / lead for k, c in shifted.items()}
    scaled[0.0] = 1.0 + 0j
    outer = binomial_power(inner.with_terms(scaled, cutoff=cutoff), 1.0 / alpha)
    return outer.with_terms(outer.coefs, exponent_shift=1)
