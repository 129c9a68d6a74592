"""Independent numerical ground truth.

Nothing in here reuses the series kernel's fast paths: transforms are
done by adaptive quadrature, densities by Stieltjes inversion, products
by nested dictionary loops.  Tests compare these against the series
machinery; the CLI ``verify`` command does the same on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import (
    IncompatibleSeriesError,
    InvalidArgumentError,
    OutsideValidityRegionError,
)
from .semigroup import density_constant, exponent_grid
from .series import GenSeries, Normalization, evaluate
from .transforms import MomentSeries, FourierEvaluator, stieltjes_from_moments

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=600)


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
    |f(x)| <= envelope_scale * |x|^(-envelope_exponent - 1).
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


def _once_per_node(fn: Callable[[float], complex]) -> Callable[[float], complex]:
    """fn remembering its value at every node, so that the quad runs of
    one integral (real and imaginary parts, cosine and sine weights)
    evaluate each node they share once."""
    seen: dict[float, complex] = {}

    def at(x: float) -> complex:
        v = seen.get(x)
        if v is None:
            v = seen[x] = fn(x)
        return v

    return at


def _quad_complex(fn: Callable[[float], complex], a: float, b: float,
                  **opts) -> tuple[complex, float]:
    from scipy.integrate import quad  # loaded only when an oracle integrates

    kw = {**_QUAD_OPTS, **opts}
    fn = _once_per_node(fn)
    re, re_err = quad(lambda x: fn(x).real, a, b, **kw)
    im, im_err = quad(lambda x: fn(x).imag, a, b, **kw)
    return complex(re, im), re_err + im_err


def _summed(parts: list[tuple[complex, float]]) -> QuadratureResult:
    """One result from the (value, error) of each piece of an integral."""
    return QuadratureResult(value=sum((v for v, _ in parts), 0j),
                            error_estimate=sum((e for _, e in parts), 0.0), tail_bound=0.0)


def _oscillatory_halfline(fn: Callable[[float], complex], a: float,
                          z: float) -> tuple[complex, float]:
    """integral_a^inf e^{ixz} fn(x) dx for decaying fn, z != 0."""
    from scipy.integrate import quad

    w = abs(z)
    kw = dict(epsabs=1e-12, limit=400, limlst=200)
    fn = _once_per_node(fn)
    cr, er1 = quad(lambda x: fn(x).real, a, math.inf, weight="cos", wvar=w, **kw)
    sr, er2 = quad(lambda x: fn(x).real, a, math.inf, weight="sin", wvar=w, **kw)
    ci, er3 = quad(lambda x: fn(x).imag, a, math.inf, weight="cos", wvar=w, **kw)
    si, er4 = quad(lambda x: fn(x).imag, a, math.inf, weight="sin", wvar=w, **kw)
    # e^{ixz} = cos(wx) + i sign(z) sin(wx)
    s = 1.0 if z > 0 else -1.0
    value = complex(cr - s * si, ci + s * sr)
    return value, er1 + er2 + er3 + er4


def quadrature_fourier(density: IntegrableDensity, z: float) -> QuadratureResult:
    """integral e^{ixz} f(x) dx by adaptive quadrature.

    The core window is integrated directly; unbounded tails use the
    dedicated oscillatory rules, which carry the integral all the way
    to infinity, so nothing is discarded.
    """
    z = float(z)
    fn, x0 = density.fn, density.envelope_start
    lo, hi = density.lower, density.upper
    core_lo, core_hi = max(lo, -x0), min(hi, x0)

    def wave(x: float) -> complex:
        return fn(x) * complex(math.cos(x * z), math.sin(x * z))

    def halfline(f: Callable[[float], complex], a: float, w: float):
        """integral_a^inf e^{ixw} f(x) dx"""
        if z == 0.0:
            return _quad_complex(f, a, math.inf)
        return _oscillatory_halfline(f, a, w)

    parts = []
    if core_lo < core_hi:
        pts = [0.0] if core_lo < 0.0 < core_hi else None
        parts.append(_quad_complex(wave, core_lo, core_hi, points=pts))
    if math.isinf(hi):
        parts.append(halfline(fn, max(core_hi, lo), z))
    elif hi > core_hi:
        parts.append(_quad_complex(wave, core_hi, hi))
    if math.isinf(lo):
        parts.append(halfline(lambda u: fn(-u), -min(core_lo, hi), -z))
    elif lo < core_lo:
        parts.append(_quad_complex(wave, lo, core_lo))
    return _summed(parts)


def quadrature_stieltjes(density: IntegrableDensity, z: complex) -> QuadratureResult:
    """integral f(x)/(z - x) dx for z in the lower half plane."""
    z = complex(z)
    if z.imag >= 0:
        raise OutsideValidityRegionError(
            "resolvent quadrature expects Im z < 0, got %s" % z)

    def kernel(x: float) -> complex:
        return density.fn(x) / (z - x)

    lo, hi = density.lower, density.upper
    a = lo if math.isfinite(lo) else -density.envelope_start
    b = hi if math.isfinite(hi) else density.envelope_start
    parts = []
    if a < b:
        pts = [0.0] if a < 0.0 < b else None
        parts.append(_quad_complex(kernel, a, b, points=pts))
    if math.isinf(hi):
        parts.append(_quad_complex(kernel, max(b, lo), math.inf))
    if math.isinf(lo):
        parts.append(_quad_complex(lambda u: kernel(-u), -min(a, hi), math.inf))
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

    The left side integrates the Fourier-side series evaluator; the
    right evaluates the resolvent series at -iy.  Valid once y clears
    the growth scale of the coefficients (y > 2cA).
    """
    fe = FourierEvaluator(m)
    A = fe.growth.A
    c = density_constant(m.spec, max(int(math.ceil(m.cutoff)), 1))
    if y <= 2.0 * c * A:
        raise OutsideValidityRegionError(
            "need y > %g to dominate coefficient growth, got %g" % (2.0 * c * A, y))

    def integrand(zv: float) -> complex:
        if zv <= 0.0:
            return complex(math.exp(-y * max(zv, 0.0)))
        return complex(fe(zv)) * math.exp(-y * zv)

    lhs, _ = _quad_complex(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-11)
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


def rotated_pareto_transform(beta: float, R: float, z: float) -> QuadratureResult:
    """R^beta integral_R^inf e^{ixz} x^(-beta-1) dx on the rotated
    contour x = R + it: smooth, non-oscillatory, high precision."""
    if beta <= 0 or R <= 0:
        raise InvalidArgumentError("need beta > 0 and R > 0")
    if z <= 0:
        raise OutsideValidityRegionError("rotation is valid for z > 0")

    def fn(t: float) -> complex:
        return math.exp(-t * z) * (R + 1j * t) ** (-beta - 1.0)

    val, err = _quad_complex(fn, 0.0, math.inf)
    phase = 1j * complex(math.cos(R * z), math.sin(R * z)) * R ** beta
    return QuadratureResult(value=phase * val, error_estimate=err, tail_bound=0.0)
