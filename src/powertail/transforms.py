"""Conversions among the five representations of a power-law measure.

The representations: moment series (GAMMA-normalized coefficients
m_gamma), Fourier-side evaluator, Stieltjes series (descending, with
d_gamma = m_gamma stored at key gamma and one structural power of 1/z),
reciprocal-Cauchy form, and the Voiculescu series.  On top of the
conversions sit the four convolutions: classical (GAMMA product),
Boolean (tails of the reciprocal-Cauchy forms add), monotone (forms
compose, which the moments do by substitution), free (Voiculescu series
add, which the forms do by subordination).

Integer exponents are special throughout: a tail density only pins
down the imaginary part of an integer-indexed moment (the real part
belongs to the compactly supported inner piece), and real tail data at
an integer exponent cannot be lifted to a complex coefficient at all
(the would-be lift hits a logarithmic term).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    InvalidFormError,
    InvalidModelError,
    LogTermObstructionError,
    OutsideValidityRegionError,
)
from .semigroup import SemigroupSpec, density_constant, guard_radius
from .series import (
    DEFAULT_CUTOFF,
    Branch,
    EvalResult,
    GenSeries,
    GrowthBound,
    Normalization,
    Variable,
    _combine_v,
    _common_grid,
    _eval_plan,
    _finite,
    _reciprocal_v,
    _revert_v,
    _subordinate_v,
    _substitute_v,
    evaluate,
    growth_fit,
    is_f_form,
    product,
)

__all__ = [
    "MomentSeries", "moment_series", "TailDensityModel",
    "stieltjes_from_moments", "moments_from_stieltjes",
    "F_from_moments", "moments_from_F",
    "voiculescu_from_moments", "moments_from_voiculescu",
    "moments_from_tail", "tail_from_moments", "tail_real_to_complex",
    "classical_convolve", "boolean_convolve", "monotone_convolve", "free_convolve",
]


@dataclass(frozen=True)
class MomentSeries:
    """Moment coefficients m_gamma as a GAMMA-normalized ascending series.

    m_0 = 1 always (probability normalization).
    """

    series: GenSeries

    def __post_init__(self):
        s = self.series
        if s.variable is not Variable.ASCENDING or s.normalization is not Normalization.GAMMA:
            raise InvalidFormError("moment series must be ascending and GAMMA-normalized")
        if s.exponent_shift != 0:
            raise InvalidFormError("moment series carries no structural shift")
        if s.coefs[0] != 1:
            raise InvalidFormError("moment series needs m_0 = 1")

    @property
    def spec(self) -> SemigroupSpec:
        return self.series.spec

    @property
    def cutoff(self) -> float:
        return self.series.cutoff

    @property
    def terms(self) -> Mapping[float, complex]:
        return self.series.terms

    def moment(self, gamma: float) -> complex:
        return self.series.coefficient(gamma)

    def truncated(self, cutoff: float) -> "MomentSeries":
        return MomentSeries(self.series.truncated(cutoff))


def moment_series(spec: SemigroupSpec, moments: dict,
                  cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    terms = dict(moments)
    terms.setdefault(0.0, 1.0 + 0j)
    return MomentSeries(GenSeries(spec, Variable.ASCENDING, Normalization.GAMMA,
                                  terms, cutoff))


def delta_zero(spec: SemigroupSpec | None = None,
               cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    """Point mass at the origin: the unit of every convolution here."""
    return moment_series(spec or SemigroupSpec.natural(), {}, cutoff)


# -- Fourier side --------------------------------------------------------


class FourierEvaluator:
    """Callable for sum of m_gamma i^gamma z^gamma / Gamma(gamma+1), z > 0.

    The phases i^gamma ride inside the coefficient vector so evaluation
    reduces to the plain GAMMA-normalized series at real z.  That phased
    series and its evaluation plan are built once per moment series and
    kept on it, so every evaluator of m, and ``laplace_link_check`` on m,
    share them (as they share the resolvent series of
    ``stieltjes_from_moments``).
    """

    def __init__(self, m: MomentSeries):
        self.moments = m
        self.series = _phased(m.series)

    @property
    def growth(self) -> GrowthBound:
        return _eval_plan(self.series).growth

    def __call__(self, z: float) -> EvalResult:
        z = complex(z)
        if not (z.imag == 0.0 and 0.0 < z.real < math.inf):
            raise OutsideValidityRegionError(
                "Fourier-side evaluator is defined for real z > 0, got %r" % (z,))
        return evaluate(self.series, z.real, Branch.PRINCIPAL)


def _phased(s: GenSeries) -> GenSeries:
    """m_gamma i^gamma for the moment series s, made on first use and kept
    on s.  At an integer gamma, i^gamma is exactly 1, i, -1 or -i, where
    exp(i pi gamma / 2) would leave a ghost part of an ulp of pi."""
    phased = s.__dict__.get("_phased")
    if phased is None:
        idx = np.flatnonzero(s.coefs)
        coefs = np.zeros(len(s.coefs), dtype=np.complex128)
        coefs[idx] = [c * ((1, 1j, -1, -1j)[int(g) % 4] if g.is_integer()
                           else cmath.exp(1j * math.pi * g / 2.0))
                      for g, c in zip(s.grid().values[idx].tolist(), s.coefs[idx].tolist())]
        phased = s.__dict__["_phased"] = GenSeries._adopt(
            s.spec, s.variable, s.normalization, _finite(coefs, s.spec, s.cutoff), s.cutoff)
    return phased


# -- Stieltjes side ------------------------------------------------------


def stieltjes_from_moments(m: MomentSeries) -> GenSeries:
    """Descending series with d_gamma = m_gamma stored at key gamma and a
    structural extra power of 1/z (shift +1): G(z) = sum m_g z^(-g-1).
    Made on first use and kept on m's series, as the phased Fourier
    series is, so every caller on m shares it and its evaluation plan."""
    G = m.series.__dict__.get("_resolvent")
    if G is None:
        G = m.series.__dict__["_resolvent"] = GenSeries(
            m.spec, Variable.DESCENDING, Normalization.RAW, m.series.coefs, m.cutoff,
            exponent_shift=1)
    return G


def moments_from_stieltjes(G: GenSeries) -> MomentSeries:
    if (G.variable is not Variable.DESCENDING or G.normalization is not Normalization.RAW
            or G.exponent_shift != 1):
        raise InvalidFormError("expected a Stieltjes-type series (descending, shift +1)")
    return MomentSeries(GenSeries(G.spec, Variable.ASCENDING, Normalization.GAMMA,
                                  G.coefs, G.cutoff))


# -- reciprocal-Cauchy form ----------------------------------------------


def F_from_moments(m: MomentSeries) -> GenSeries:
    """Form F(z) = z * reciprocal of sum m_gamma z^(-gamma)."""
    return GenSeries._adopt(m.spec, Variable.DESCENDING, Normalization.RAW,
                            _reciprocal_v(m.series.coefs, m.series.grid()), m.cutoff,
                            exponent_shift=-1)


def _moments(coefs, spec: SemigroupSpec, cutoff: float) -> MomentSeries:
    return MomentSeries(GenSeries._adopt(spec, Variable.ASCENDING, Normalization.GAMMA,
                                         coefs, cutoff))


def _moments_from_F_v(form, grid) -> MomentSeries:
    """The moments of the reciprocal-Cauchy form held by the grid vector form."""
    return _moments(_reciprocal_v(form, grid), grid.spec, grid.cutoff)


def moments_from_F(F: GenSeries) -> MomentSeries:
    if not is_f_form(F):
        raise InvalidFormError("expected a reciprocal-Cauchy form")
    return _moments_from_F_v(F.coefs, F.grid())


# -- Voiculescu series -----------------------------------------------------


def voiculescu_from_moments(m: MomentSeries) -> GenSeries:
    """Series of F^(-1)(z) - z in descending powers.

    Stored at key gamma is the coefficient of z^(1-gamma); the key-0
    slot (the unit of the reverted form) is dropped, so a pure point
    mass gives the empty series.
    """
    grid = m.series.grid()
    tail = _revert_v(_reciprocal_v(m.series.coefs, grid), grid)
    tail[0] = 0.0
    return GenSeries._adopt(m.spec, Variable.DESCENDING, Normalization.RAW, tail,
                            m.cutoff, exponent_shift=-1)


def _require_voiculescu(phi: GenSeries) -> None:
    if (phi.variable is not Variable.DESCENDING
            or phi.normalization is not Normalization.RAW
            or phi.exponent_shift != -1 or phi.coefs[0] != 0):
        raise InvalidFormError(
            "expected a Voiculescu-type series (descending, shift -1, no unit term)")


def moments_from_voiculescu(phi: GenSeries) -> MomentSeries:
    _require_voiculescu(phi)
    grid, form = phi.grid(), phi.coefs.copy()
    form[0] = 1.0  # the reciprocal-Cauchy form's inverse
    return _moments_from_F_v(_revert_v(form, grid), grid)


# -- tail density ---------------------------------------------------------


@dataclass(frozen=True)
class TailDensityModel:
    """Tail density sum over beta of Im(a_beta (1/x)^(beta+1)) on |x| >= R.

    ``inner_moments`` carries the integer-exponent moment data the tail
    cannot see: by convention entry n holds the real part of m_n, with
    m_0 = 1 when absent.  The negative-axis convention reads
    (1/x)^(beta+1) as e^(i(beta+1)pi) |x|^(-beta-1).
    """

    spec: SemigroupSpec
    a: dict
    r: float
    R: float
    inner_moments: dict = field(default_factory=dict)
    guard_radius: float = 0.0  # extra validity floor, e.g. from a moment fit

    def __post_init__(self):
        a = {}
        for beta, coef in self.a.items():
            beta = float(beta)
            coef = complex(coef)
            if beta <= 0 or not math.isfinite(beta):
                raise InvalidModelError("tail exponents must be positive reals")
            if coef != 0:
                a[beta] = coef
        object.__setattr__(self, "a", dict(sorted(a.items())))
        r = float(self.r)
        R = float(self.R)
        if not (r > 0 and R > 0):
            raise InvalidModelError("scales r and R must be positive")
        c = density_constant(self.spec, 20)
        if not r < R / c * (1 + 1e-12):
            raise InvalidModelError(
                "coefficient scale r = %g must stay below R/c = %g" % (r, R / c))
        for beta, coef in a.items():
            if abs(coef) > r ** beta * (1 + 1e-9):
                raise InvalidModelError(
                    "|a_%g| = %g exceeds the geometric bound r^beta = %g"
                    % (beta, abs(coef), r ** beta))
        inner = {int(k): complex(v) for k, v in self.inner_moments.items()}
        inner.setdefault(0, 1.0 + 0j)
        object.__setattr__(self, "inner_moments", inner)

    def validity_radius(self) -> float:
        A = max((abs(c) ** (1.0 / (b + 1.0)) for b, c in self.a.items()), default=0.0)
        return max(guard_radius(self.spec, A, 20), self.guard_radius)

    def density(self, x: float) -> float:
        x = float(x)
        B = max(self.validity_radius(), 0.0)
        if abs(x) <= B or abs(x) < self.R:
            raise OutsideValidityRegionError(
                "tail density is only evaluated for |x| > %g" % max(B, self.R))
        total = 0.0
        if x > 0:
            for beta, coef in self.a.items():
                total += (coef * x ** (-beta - 1.0)).imag
        else:
            ax = -x
            for beta, coef in self.a.items():
                phase = cmath.exp(1j * math.pi * (beta + 1.0))
                total += (coef * phase * ax ** (-beta - 1.0)).imag
        return total

    __call__ = density


def tail_from_moments(m: MomentSeries) -> TailDensityModel:
    """Tail model with a_gamma = m_gamma / pi; the density series is
    (1/pi) sum over gamma > 0 of Im(m_gamma (1/x)^(gamma+1)).

    Real parts of integer moments go to the inner descriptor so the
    inverse conversion is exact.
    """
    a = {}
    inner = {}
    for g, c in m.terms.items():
        if g == math.floor(g):
            inner[int(g)] = complex(c.real)
            if g > 0 and c.imag != 0.0:
                a[g] = 1j * c.imag / math.pi
        elif g > 0:
            a[g] = c / math.pi
    A = growth_fit(m.series).A
    r = max(A, 1e-6)
    R = 2.0 * r * density_constant(m.spec, 20)
    return TailDensityModel(spec=m.spec, a=a, r=r * (1 + 1e-9), R=R,
                            inner_moments=inner, guard_radius=guard_radius(m.spec, A, 20))


def moments_from_tail(model: TailDensityModel,
                      cutoff: float = DEFAULT_CUTOFF) -> MomentSeries:
    """m_gamma = pi a_gamma off the integers; integer moments take their
    real part from the inner descriptor and imaginary part from the tail."""
    terms: dict[float, complex] = {}
    for beta, coef in model.a.items():
        if beta == math.floor(beta):
            terms[beta] = 1j * math.pi * coef.imag
        else:
            terms[beta] = math.pi * coef
    for n, re_part in model.inner_moments.items():
        terms[float(n)] = terms.get(float(n), 0j) + complex(re_part.real)
    if terms.get(0.0, 0j) != 1:
        raise InvalidModelError("inner moments must normalize to m_0 = 1")
    return moment_series(model.spec, terms, cutoff)


def tail_real_to_complex(b: dict, spec: SemigroupSpec) -> dict:
    """Lift real tail data b_beta to complex coefficients a_beta with
    Im a = b and Re a = -cot(pi beta) b.

    Integer exponents admit no such lift (the cotangent pole signals a
    logarithmic term), so nonzero integer entries are rejected.
    """
    out = {}
    for beta, val in b.items():
        beta = float(beta)
        val = float(val)
        if val == 0.0:
            continue
        if beta == math.floor(beta):
            raise LogTermObstructionError(
                "real tail data at integer exponent %g has no complex lift" % beta)
        out[beta] = complex(-val / math.tan(math.pi * beta), val)
    return out


# -- convolutions ----------------------------------------------------------


def _on_common_spec(m1: MomentSeries, m2: MomentSeries) -> tuple[MomentSeries, ...]:
    """Both operands on the semigroup their generators generate together;
    each keeps its terms, which lie on that larger grid too.  An operand
    already on it passes through, so a self-convolution's two operands
    stay one object and are converted once."""
    spec = SemigroupSpec(tuple(set(m1.spec.fractional_generators + m2.spec.fractional_generators)))
    return tuple(m if m.spec == spec else moment_series(spec, m.terms, m.cutoff) for m in (m1, m2))


def classical_convolve(m1: MomentSeries, m2: MomentSeries) -> MomentSeries:
    """Classical convolution: plain product in the GAMMA grading."""
    m1, m2 = _on_common_spec(m1, m2)
    return MomentSeries(product(m1.series, m2.series))


def boolean_convolve(m1: MomentSeries, m2: MomentSeries) -> MomentSeries:
    """Boolean convolution: reciprocal-Cauchy tails add."""
    m1, m2 = _on_common_spec(m1, m2)
    F1 = F_from_moments(m1)
    F2 = F1 if m2 is m1 else F_from_moments(m2)
    grid, a, b = _common_grid(F1, F2)
    form = _combine_v(1.0, a, 1.0, b, grid)
    form[0] -= 1.0  # the two unit terms collapse to one
    return _moments_from_F_v(form, grid)


def monotone_convolve(m1: MomentSeries, m2: MomentSeries) -> MomentSeries:
    """Monotone convolution: reciprocal-Cauchy forms compose (left acts),
    F = F1 o F2 (Franz, Indiana Univ. Math. J. 58, 2009).

    Since G = 1/F, the moments compose too: G(z) = G1(F2(z)), and with
    w = 1/z and F2(z) = z / M2(w) that is M(w) = M2(w) M1(w M2(w)), the
    sum over the moments m1_g of m1_g w^g M2(w)^(1 + g).  One substitution
    on the two moment vectors computes it, so the route takes no
    reciprocal: neither of an operand nor of the composed form."""
    m1, m2 = _on_common_spec(m1, m2)
    grid, a, h = _common_grid(m1.series, m2.series)
    return _moments(_substitute_v(a, h, grid), grid.spec, grid.cutoff)


def free_convolve(m1: MomentSeries, m2: MomentSeries) -> MomentSeries:
    """Free convolution by subordination (Biane, Math. Z. 227, 1998;
    Belinschi and Bercovici, J. Anal. Math. 101, 2007).

    With h_i(z) = F_i(z) - z, the subordination functions solve
    omega_1 = z + h2(omega_2) and omega_2 = z + h1(omega_1), and the form
    of the convolution is F = F1(omega_1) = omega_1 + omega_2 - z.  Its
    tail in w = 1/z is f + tau, where omega_1 = z (1 + f) and
    omega_2 = z (1 + tau) are found together in one online pass
    (``series._subordinate_v``): F1(omega_1) is read off the two
    subordination functions, so no composition is computed.  The route
    never passes through the Voiculescu series, whose reversion back to a
    form lost every digit at cutoff 48 (a free stable law convolved with
    itself missed the law at twice its weight by 7.5e7).  A
    self-convolution solves omega = z + h(omega) alone, one set of rows in
    place of two."""
    m1, m2 = _on_common_spec(m1, m2)
    F1 = F_from_moments(m1)
    F2 = F1 if m2 is m1 else F_from_moments(m2)
    grid, a, b = _common_grid(F1, F2)
    return _moments_from_F_v(_subordinate_v(a, b, grid), grid)
