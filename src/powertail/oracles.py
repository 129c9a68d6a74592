"""Independent numerical ground truth.

Nothing in here reuses the series kernels: transforms are done by
double-exponential quadrature, densities by Stieltjes inversion,
products by nested dictionary loops.  Tests compare these against the
series machinery; the CLI ``verify`` command does the same on demand.

Three double-exponential (DE) rules do every integral, each on one
vector of nodes: exp-sinh on half-lines and tanh-sinh on finite
intervals (Takahasi and Mori, Publ. RIMS 9, 1974), and Ooura and Mori's
rule for Fourier-type half-lines (J. Comput. Appl. Math. 112, 1999).
Each returns the sum at step h/2 with the error estimate
|I_h - I_{h/2}| + n u sum |w f| over its n terms (u the unit
roundoff), which accounts for the rounding of a sum whose terms cancel;
exp-sinh and tanh-sinh add their two end terms for the truncated range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    IncompatibleSeriesError,
    InvalidArgumentError,
    OutsideValidityRegionError,
)
from .semigroup import density_constant, exponent_grid
from .series import GenSeries, Normalization, _evaluate_many, evaluate
from .transforms import MomentSeries, FourierEvaluator, stieltjes_from_moments


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    tail_bound: float

    def __post_init__(self):
        if self.error_estimate < 0 or self.tail_bound < 0:
            raise InvalidArgumentError("error bounds cannot be negative")

    def __complex__(self) -> complex:
        return self.value


@dataclass(frozen=True)
class IntegrableDensity:
    """Pointwise density with enough support/decay metadata to integrate.

    Beyond |x| >= envelope_start the density is promised to obey
    |f(x)| <= envelope_scale * |x|^(-envelope_exponent - 1).  The
    quadratures read ``fn``, ``lower``, ``upper`` and ``envelope_start``,
    the edge of the core window they integrate on a finite interval;
    ``envelope_exponent`` is only checked here, and nothing reads
    ``envelope_scale``.
    """

    fn: Callable[[float], complex]
    lower: float = -math.inf
    upper: float = math.inf
    envelope_scale: float = 1.0
    envelope_exponent: float = 1.0
    envelope_start: float = 1.0

    def __post_init__(self):
        if self.lower >= self.upper:
            raise InvalidArgumentError("empty support")
        if self.envelope_start <= 0:
            raise InvalidArgumentError("envelope must start at a positive abscissa")
        unbounded = math.isinf(self.lower) or math.isinf(self.upper)
        if unbounded and self.envelope_exponent <= 0:
            raise InvalidArgumentError(
                "envelope exponent %g gives a non-integrable tail"
                % self.envelope_exponent)


# -- double-exponential rules -------------------------------------------------

_HALF_PI = 0.5 * math.pi
_UNIT_ROUNDOFF = 2.0 ** -53
# the step of exp-sinh and tanh-sinh, and of Ooura-Mori; each rule returns
# its sum at step h/2 and reads its error from the sum at step h
_H = 1.0 / 16.0
_OM_H = 1.0 / 8.0
# exp-sinh and tanh-sinh run s over [-_S_MAX, _S_MAX]: the exp-sinh nodes
# span e^-70 to e^70, and the tanh-sinh weights fall below 1e-60
_S_MAX = 4.5
# Ooura-Mori's t range, measured on the Cauchy law's tails at |z| from
# 0.01 to 20: a narrower one loses digits at small |z| (the left end)
# and at the right end; a finer h would need a wider left end
_OM_T = (-6.5, 5.0)
_OM_BETA = 0.25


Vectorized = Callable[[np.ndarray], np.ndarray]


def _result(value: complex, coarse: complex, terms: np.ndarray,
            extra: float = 0.0) -> QuadratureResult:
    err = abs(value - coarse) + len(terms) * _UNIT_ROUNDOFF * float(np.sum(np.abs(terms)))
    return QuadratureResult(value=value, error_estimate=err + extra, tail_bound=0.0)


def _trapezoid(on_h: np.ndarray, terms: np.ndarray) -> QuadratureResult:
    """The step-h/2 trapezoid sum of the weighted values ``terms``; the
    step-h sum takes those ``on_h``.  The two end terms join the
    error: they stand for what the truncated range leaves out."""
    if not len(terms):
        return QuadratureResult(value=0j, error_estimate=0.0, tail_bound=0.0)
    fine = 0.5 * _H * terms
    ends = abs(fine[0]) + abs(fine[-1])
    return _result(complex(np.sum(fine)), complex(_H * np.sum(terms[on_h])), fine, ends)


def _steps() -> tuple[np.ndarray, np.ndarray]:
    """s = k h/2 over [-_S_MAX, _S_MAX], and which of them lie on the h grid."""
    k = np.arange(-math.floor(2.0 * _S_MAX / _H), math.floor(2.0 * _S_MAX / _H) + 1)
    return 0.5 * _H * k, k % 2 == 0


def exp_sinh(f: Vectorized, a: float = 0.0, x_max: float = math.inf) -> QuadratureResult:
    """integral_a^inf f(x) dx by exp-sinh, x = a + e^((pi/2) sinh s).

    f maps an array of nodes to an array of values; it should be smooth
    on [a, inf) and decay at least algebraically.  Nodes with x - a
    >= x_max are left out, for an integrand already below double
    precision there.
    """
    s, on_h = _steps()
    u = np.exp(_HALF_PI * np.sinh(s))
    keep = u < x_max
    s, on_h, u = s[keep], on_h[keep], u[keep]
    return _trapezoid(on_h, _HALF_PI * np.cosh(s) * u * f(a + u))


def tanh_sinh(f: Vectorized, a: float, b: float) -> QuadratureResult:
    """integral_a^b f(x) dx by tanh-sinh, x = (a+b)/2 + (b-a)/2 tanh((pi/2) sinh s).

    Each node is placed from its gap to the nearer end, and nodes that
    round onto an end are left out, so f is never called at a or b.
    """
    s, on_h = _steps()
    e = _HALF_PI * np.sinh(s)
    d = 0.5 * (b - a)
    gap = 2.0 * d / (np.exp(2.0 * np.abs(e)) + 1.0)
    x = np.where(e > 0.0, b - gap, a + gap)
    keep = (x > a) & (x < b)
    s, on_h, e, x = s[keep], on_h[keep], e[keep], x[keep]
    w = d * _HALF_PI * np.cosh(s) / np.cosh(e) ** 2
    return _trapezoid(on_h, w * f(x))


def _ooura_mori_terms(f: Vectorized, w: float, h: float) -> np.ndarray:
    """The weighted terms of Ooura and Mori's step-h sum for
    integral_0^inf f(x) e^{iwx} dx, w != 0: x = M phi(t) / |w| with
    M = pi / h and phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))),
    at t = n h for the sine part and t = (n - 1/2) h for the cosine
    part, where the factors vanish double-exponentially as t grows."""
    M = math.pi / h
    alpha = _OM_BETA / math.sqrt(1.0 + M * math.log1p(M) / (4.0 * math.pi))
    c = 2.0 + alpha + _OM_BETA
    lo, hi = _OM_T
    n_sin = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    n_cos = np.arange(math.ceil(lo / h + 0.5), math.floor(hi / h + 0.5) + 1)
    n = np.concatenate([n_sin, n_cos])
    sine = np.arange(len(n)) < len(n_sin)
    t = (n - np.where(sine, 0.0, 0.5)) * h
    at0 = t == 0.0
    ts = np.where(at0, 1.0, t)  # phi(0) and phi'(0) are limits, set below
    g = 2.0 * ts - alpha * np.expm1(-ts) + _OM_BETA * np.expm1(ts)
    dg = 2.0 + alpha * np.exp(-ts) + _OM_BETA * np.exp(ts)
    q = -1.0 / np.expm1(-g)   # 1 / (1 - e^-g)
    r = 1.0 / np.expm1(g)     # e^-g / (1 - e^-g)
    phi = np.where(at0, 1.0 / c, ts * q)
    dphi = np.where(at0, ((alpha - _OM_BETA) + c * c) / (2.0 * c * c), q - ts * dg * r * q)
    # for t > 0, sin(M phi) and cos(M phi) at these t are +-sin(M (phi - t)),
    # whose argument is small; for t <= 0 phi itself is small
    near = np.where(n % 2 == 0, 1.0, -1.0) * np.sin(M * ts * r)
    trig = np.where(t > 0.0, near, np.where(sine, np.sin(M * phi), np.cos(M * phi)))
    aw = abs(w)
    terms = (M / aw) * h * dphi * trig * f(M * phi / aw)
    return np.where(sine, 1j * math.copysign(1.0, w), 1.0) * terms


def ooura_mori(f: Vectorized, w: float) -> QuadratureResult:
    """integral_0^inf f(x) e^{iwx} dx for w != 0 and f decaying, by
    Ooura and Mori's rule.  The h and h/2 sums have their own nodes,
    since M = pi / h ties the nodes to the step."""
    coarse = complex(np.sum(_ooura_mori_terms(f, w, _OM_H)))
    fine = _ooura_mori_terms(f, w, 0.5 * _OM_H)
    return _result(complex(np.sum(fine)), coarse, fine)


def _summed(parts: list[QuadratureResult]) -> QuadratureResult:
    """One result from the pieces of an integral."""
    return QuadratureResult(value=sum((p.value for p in parts), 0j),
                            error_estimate=sum(p.error_estimate for p in parts),
                            tail_bound=0.0)


def _at(fn: Callable[[float], complex], x: np.ndarray) -> np.ndarray:
    """A pointwise density at every node."""
    return np.array([fn(v) for v in x.tolist()], dtype=np.complex128)


def _pieces(a: float, b: float, points: Sequence[float]) -> list[tuple[float, float]]:
    """[a, b] cut at the points strictly inside it."""
    cuts = sorted({p for p in points if a < p < b})
    ends = [a] + cuts + [b]
    return list(zip(ends[:-1], ends[1:]))


def quadrature_fourier(density: IntegrableDensity, z: float) -> QuadratureResult:
    """integral e^{ixz} f(x) dx by double-exponential quadrature.

    The core window |x| <= envelope_start, cut at 0, and any finite
    tail are integrated by tanh-sinh (h = 1/16).  An unbounded tail is
    carried all the way to infinity, so nothing is discarded: by Ooura
    and Mori's rule (h = 1/8), or by exp-sinh (h = 1/16) at z = 0.
    """
    z = float(z)
    fn, x0 = density.fn, density.envelope_start
    lo, hi = density.lower, density.upper
    core_lo, core_hi = max(lo, -x0), min(hi, x0)

    def wave(x: np.ndarray) -> np.ndarray:
        return _at(fn, x) * np.exp(1j * z * x)

    def halfline(f: Callable[[float], complex], a: float, w: float) -> QuadratureResult:
        """integral_a^inf e^{ixw} f(x) dx"""
        if z == 0.0:
            return exp_sinh(lambda x: _at(f, x), a)
        q = ooura_mori(lambda u: _at(f, a + u), w)
        return QuadratureResult(value=complex(math.cos(w * a), math.sin(w * a)) * q.value,
                                error_estimate=q.error_estimate, tail_bound=0.0)

    parts = []
    if core_lo < core_hi:
        parts += [tanh_sinh(wave, p, q) for p, q in _pieces(core_lo, core_hi, (0.0,))]
    if math.isinf(hi):
        parts.append(halfline(fn, max(core_hi, lo), z))
    elif hi > core_hi:
        parts.append(tanh_sinh(wave, core_hi, hi))
    if math.isinf(lo):
        parts.append(halfline(lambda u: fn(-u), -min(core_lo, hi), -z))
    elif lo < core_lo:
        parts.append(tanh_sinh(wave, lo, core_lo))
    return _summed(parts)


def quadrature_stieltjes(density: IntegrableDensity, z: complex) -> QuadratureResult:
    """integral f(x)/(z - x) dx for z in the lower half plane.

    tanh-sinh (h = 1/16) on the finite part, cut at 0 and at Re z, where
    the kernel peaks; exp-sinh (h = 1/16) on unbounded tails.
    """
    z = complex(z)
    if z.imag >= 0:
        raise OutsideValidityRegionError(
            "resolvent quadrature expects Im z < 0, got %s" % z)

    def kernel(x: np.ndarray) -> np.ndarray:
        return _at(density.fn, x) / (z - x)

    lo, hi = density.lower, density.upper
    x0 = density.envelope_start
    a = lo if math.isfinite(lo) else min(-x0, z.real)
    b = hi if math.isfinite(hi) else max(x0, z.real)
    parts = []
    if a < b:
        parts += [tanh_sinh(kernel, p, q) for p, q in _pieces(a, b, (0.0, z.real))]
    if math.isinf(hi):
        parts.append(exp_sinh(kernel, max(b, lo)))
    if math.isinf(lo):
        parts.append(exp_sinh(lambda u: kernel(-u), -min(a, hi)))
    return _summed(parts)


_DEFAULT_Y = (1e-1, 10.0 ** -2.5, 1e-4)


def _neville_at_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x_i, x_j = xs[i], xs[i + level]
            vals[i] = (x_j * vals[i] - x_i * vals[i + 1]) / (x_j - x_i)
    return vals[0]


def stieltjes_inversion(G: Callable[[complex], complex], x: float,
                        y_sequence: Sequence[float] = _DEFAULT_Y) -> float:
    """Density at x recovered from the resolvent: the y -> 0 limit of
    (1/pi) Im G(x - iy), extrapolated over the given y values."""
    if len(y_sequence) < 1:
        raise InvalidArgumentError("need at least one evaluation height")
    ys = sorted(float(y) for y in y_sequence)
    if ys[0] <= 0:
        raise InvalidArgumentError("heights must be positive")
    samples = [complex(G(complex(x, -y))).imag / math.pi for y in ys]
    if len(ys) == 1:
        return samples[0]
    return _neville_at_zero(ys, samples)


class LaplaceLink(NamedTuple):
    lhs: complex
    rhs: complex
    discrepancy: float


def laplace_link_check(m: MomentSeries, y: float) -> LaplaceLink:
    """Both sides of: integral_0^inf F(z) e^{-yz} dz = -i G(-iy).

    The left side integrates the Fourier-side series by exp-sinh
    (h = 1/16) in u = yz, over the nodes with u < 700, where e^-u is
    still a double; the series is summed at all of them in one product.
    The right evaluates the resolvent series at -iy.  Valid once y
    clears the growth scale of the coefficients (y > 2cA).
    """
    fe = FourierEvaluator(m)
    A = fe.growth.A
    c = density_constant(m.spec, max(int(math.ceil(m.cutoff)), 1))
    if y <= 2.0 * c * A:
        raise OutsideValidityRegionError(
            "need y > %g to dominate coefficient growth, got %g" % (2.0 * c * A, y))

    lhs = exp_sinh(lambda u: _evaluate_many(fe.series, u / y) * np.exp(-u),
                   x_max=700.0).value / y
    S = stieltjes_from_moments(m)
    rhs = -1j * complex(evaluate(S, complex(0.0, -y)))
    return LaplaceLink(lhs=lhs, rhs=rhs, discrepancy=abs(lhs - rhs))


# -- brute-force series operations ----------------------------------------


def brute_series_product(f: GenSeries, g: GenSeries) -> GenSeries:
    """Nested-loop product with per-pair weights; no shared kernel code.

    For factorial-normalized series the weight of a coefficient pair is
    Gamma(e+1)/(Gamma(a+1)Gamma(b+1)) computed through lgamma, which is
    a different route than the kernel's vectorized renormalization.
    """
    if f.spec != g.spec or f.variable is not g.variable \
            or f.normalization is not g.normalization:
        raise IncompatibleSeriesError("series live in different algebras")
    if f.exponent_shift or g.exponent_shift:
        raise IncompatibleSeriesError("products need unshifted series")
    cutoff = min(f.cutoff, g.cutoff)
    grid = exponent_grid(f.spec, cutoff)
    acc: dict[float, complex] = {}
    weighted = f.normalization is Normalization.GAMMA
    for ka, ca in f.terms.items():
        for kb, cb in g.terms.items():
            idx = grid.index_of(ka + kb)
            if idx < 0:
                continue
            key = float(grid.values[idx])
            w = 1.0
            if weighted:
                w = math.exp(math.lgamma(key + 1.0) - math.lgamma(ka + 1.0)
                             - math.lgamma(kb + 1.0))
            acc[key] = acc.get(key, 0j) + ca * cb * w
    return f.with_terms(acc, cutoff=cutoff)


def rotated_halfline(p: float, R: float, z: float) -> QuadratureResult:
    """integral_0^inf e^{-tz} (R + it)^(-p) dt by exp-sinh (h = 1/16) in
    u = tz, over the nodes with u < 700: smooth, non-oscillatory, and
    resolved to a few ulps from Rz = 0.05 up."""
    q = exp_sinh(lambda u: np.exp(-u) * (R + 1j * (u / z)) ** -p, x_max=700.0)
    return QuadratureResult(value=q.value / z, error_estimate=q.error_estimate / z,
                            tail_bound=0.0)


def rotated_pareto_transform(beta: float, R: float, z: float) -> QuadratureResult:
    """R^beta integral_R^inf e^{ixz} x^(-beta-1) dx on the rotated
    contour x = R + it, where the integrand decays like e^{-tz}:
    i e^{iRz} R^beta integral_0^inf e^{-tz} (R + it)^(-beta-1) dt, by
    ``rotated_halfline``."""
    if beta <= 0 or R <= 0:
        raise InvalidArgumentError("need beta > 0 and R > 0")
    if z <= 0:
        raise OutsideValidityRegionError("rotation is valid for z > 0")
    q = rotated_halfline(beta + 1.0, R, z)
    phase = 1j * complex(math.cos(R * z), math.sin(R * z)) * R ** beta
    return QuadratureResult(value=phase * q.value,
                            error_estimate=abs(phase) * q.error_estimate, tail_bound=0.0)
