"""Fourier transform of one-sided power-law tails, expanded in powers of z.

For a density x^(-beta-1) on [R, infinity) the transform
R^beta * integral_R^inf e^{ixz} x^(-beta-1) dx is, for z > 0, an exact
combination of integer powers z^k, the fractional power z^beta, and a
small singular block.  The singular block is where the interesting
structure lives:

* beta not an integer: a removable-looking pair of brackets mixing
  z^[beta], z^[beta]+1 and z^beta with 1/(beta - [beta]) weights,
* beta an integer: a genuine z^beta log(z) term.

The log term is the obstruction to expanding a one-sided tail in pure
powers.  Two-sided tails can cancel it: ``cancellation_residual``
computes the exact combination that survives when a positive tail with
complex weight a_beta is paired with the matching negative tail.

Everything here is for z > 0; the negative-tail variant supplies the
x < -R counterpart under the phase convention e^{i(beta+1)pi}|x|^(-beta-1).
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat

from .errors import (InvalidArgumentError, NearIntegerWarning, OutsideValidityRegionError,
                     ResourceGuardError)
from .oracles import rotated_halfline
from .semigroup import SemigroupSpec, exponent_grid
from .series import DEFAULT_CUTOFF, GenSeries, Normalization, Variable

NEAR_INTEGER_TOL = 1e-8
_AGGREGATE_K_MAX = 60  # 1/k! is far below double precision well before this


def oscillatory_constant(s: float) -> complex:
    """integral_1^inf e^{ix} x^(-s) dx.

    Computed on the rotated contour x = 1 + it, where the integrand
    decays like e^{-t}: i e^{i} integral_0^inf e^{-t} (1+it)^(-s) dt,
    by exp-sinh with h = 1/16 (``oracles.rotated_halfline``).
    Absolutely convergent for every s > 0.
    """
    if s <= 0:
        raise InvalidArgumentError("exponent must be positive, got %g" % s)
    return 1j * cmath.exp(1j) * rotated_halfline(s, 1.0, 1.0).value


@dataclass(frozen=True)
class SingularPart:
    """The non-power block, on the basis
    (Rz)^floor, (Rz)^(floor+1), (Rz)^beta, (Rz)^beta log(Rz)."""

    beta: float
    R: float
    floor_exponent: int
    coef_floor: complex
    coef_floor_plus_one: complex
    coef_beta: complex
    coef_log: complex

    @property
    def has_log_term(self) -> bool:
        return self.coef_log != 0

    def evaluate(self, z: float) -> complex:
        if z <= 0:
            raise OutsideValidityRegionError("singular part is defined for z > 0")
        w = self.R * z
        fl = self.floor_exponent
        out = self.coef_floor * w ** fl
        out += self.coef_floor_plus_one * w ** (fl + 1)
        wb = w ** self.beta
        out += self.coef_beta * wb
        if self.coef_log:
            out += self.coef_log * wb * math.log(w)
        return out

    def conjugate_scaled(self, phase: complex) -> "SingularPart":
        """phase * conj(self(z)) as a new singular part; the basis
        functions are real for z > 0, so only coefficients move."""
        return SingularPart(
            beta=self.beta, R=self.R, floor_exponent=self.floor_exponent,
            coef_floor=phase * self.coef_floor.conjugate(),
            coef_floor_plus_one=phase * self.coef_floor_plus_one.conjugate(),
            coef_beta=phase * self.coef_beta.conjugate(),
            coef_log=phase * self.coef_log.conjugate(),
        )


@dataclass(frozen=True)
class ParetoExpansion:
    beta: float
    R: float
    regular: GenSeries
    singular: SingularPart
    snapped_to_integer: bool = False

    def evaluate(self, z: float) -> complex:
        if z <= 0:
            raise OutsideValidityRegionError("expansion is valid for z > 0 only")
        terms = self.regular.terms
        out = sum(map(operator.mul, terms.values(), map(pow, repeat(z), terms)), 0j)
        return out + self.singular.evaluate(z)

    def remainder_bound(self, z: float) -> float:
        """Crude but safe bound on the dropped integer-power tail,
        from the factorial decay of the k-indexed families."""
        w = self.R * abs(z)
        fl = max(self.singular.floor_exponent, 1)
        n_last = int(math.floor(self.regular.cutoff))
        m = n_last + 2 - fl
        if m < 1:
            m = 1
        lead = 2.0 * fl * max(self._weight_scale(), 1.0)
        return lead * w ** (fl - 1) * _powers_over_factorials(w, m)[m] * math.exp(w)

    def _weight_scale(self) -> float:
        fl = self.singular.floor_exponent
        p = 1.0
        for j in range(max(fl - 1, 0)):
            p /= (self.beta - j)
        return abs(p)


def _integer_powers_of_i(n: int) -> complex:
    return (1j) ** (n % 4)


def _powers_over_factorials(x: float, top: int) -> list[float]:
    """x^k / k! for k = 0 .. top as a running product, finite wherever
    the quotient is, though x^k or k! alone may be past the float range.
    A quotient past it raises OverflowError, as x ** k would."""
    out = [1.0]
    for k in range(1, top + 1):
        out.append(out[-1] * x / k)
    if math.isinf(out[-1]):  # an overflow carries on to the last term
        raise OverflowError("x^k / k! past the float range")
    return out


def _falling_product(beta: float, count: int) -> float:
    """beta (beta-1) ... (beta-count+1); empty product is 1."""
    p = 1.0
    for j in range(count):
        p *= beta - j
    return p


def pareto_fourier(beta: float, R: float,
                   cutoff: float = DEFAULT_CUTOFF) -> ParetoExpansion:
    """Expansion of R^beta * integral_R^inf e^{ixz} x^(-beta-1) dx, z > 0.

    Regular terms live on the semigroup generated by 1 and beta; the
    singular block is returned structurally so callers can reason about
    the log obstruction instead of numerically rediscovering it.
    """
    if beta <= 0:
        raise InvalidArgumentError("tail exponent must be positive")
    if R <= 0:
        raise InvalidArgumentError("tail start must be positive")

    snapped = False
    nearest = round(beta)
    if nearest >= 1 and abs(beta - nearest) <= NEAR_INTEGER_TOL and beta != nearest:
        warnings.warn(
            "tail exponent %.17g is within %g of the integer %d; using the "
            "integer (log-term) form" % (beta, NEAR_INTEGER_TOL, nearest),
            NearIntegerWarning, stacklevel=2)
        beta = float(nearest)
        snapped = True

    exponent_grid(SemigroupSpec.with_alphas(beta), cutoff)  # the grid budget, before R^k / k!
    try:
        if beta < 1.0:
            return _expansion_small_beta(beta, R, cutoff)
        return _expansion_large_beta(beta, R, cutoff, snapped)
    except OverflowError:  # R ** beta, or R^k / k!, leaves the float range
        raise ResourceGuardError(
            "a power of R = %g up to the cutoff %g is past double precision; lower "
            "R or the cutoff below this limit" % (R, cutoff)) from None


def _expansion_small_beta(beta: float, R: float, cutoff: float) -> ParetoExpansion:
    # two-part form: a constant carried by z^beta plus one k-family
    spec = SemigroupSpec.with_alphas(beta)
    c2 = oscillatory_constant(beta + 1.0)
    for k, t in enumerate(_powers_over_factorials(1.0, _AGGREGATE_K_MAX)):
        c2 += _integer_powers_of_i(k) * t / (k - beta)
    terms: dict[float, complex] = {}
    for k, t in enumerate(_powers_over_factorials(R, int(math.floor(cutoff)))):
        terms[float(k)] = _integer_powers_of_i(k) * t / (beta - k)
    if beta <= cutoff:
        terms[beta] = terms.get(beta, 0j) + c2 * R ** beta
    regular = GenSeries(spec=spec, variable=Variable.ASCENDING,
                        normalization=Normalization.RAW, terms=terms, cutoff=cutoff)
    singular = SingularPart(beta=beta, R=R, floor_exponent=0,
                            coef_floor=0j, coef_floor_plus_one=0j,
                            coef_beta=0j, coef_log=0j)
    return ParetoExpansion(beta=beta, R=R, regular=regular, singular=singular)


def _expansion_large_beta(beta: float, R: float, cutoff: float,
                          snapped: bool) -> ParetoExpansion:
    fl = int(math.floor(beta))
    is_integer = (beta == fl)
    spec = SemigroupSpec.natural() if is_integer else SemigroupSpec.with_alphas(beta)
    P = 1.0 / _falling_product(beta, fl - 1)
    n_max = int(math.floor(cutoff))
    # R^m / m! for m <= n_max, and 1/k! for the k-family aggregate
    rk = _powers_over_factorials(R, n_max)
    inv = _powers_over_factorials(1.0, _AGGREGATE_K_MAX)

    # the z^beta weight: oscillatory constant plus the k-family aggregate
    osc = oscillatory_constant(beta - fl + 2.0)
    beta_weight = _integer_powers_of_i(fl - 1) * osc * P
    for k in [0] + list(range(3, _AGGREGATE_K_MAX + 1)):
        beta_weight += P * _integer_powers_of_i(k + fl - 1) * inv[k] / (k - beta + fl - 1)

    # at z^n the boundary sum, (iRz)^(k-1) e^{iRz} / (beta...(beta+1-k))
    # for k < fl, and the k-family's -(Rz)^(k+fl-1) / (k! (k - beta + fl - 1))
    # for k = n - fl + 1 add up to (iRz)^n / ((beta - n) n!), which keeps the
    # digits they lose where they nearly cancel.  The k-family skips k = 1
    # and 2, so at n = fl and fl + 1 the boundary sum, of terms of one sign,
    # is the coefficient.
    terms: dict[float, complex] = {}
    for n in range(n_max + 1):
        i_n = _integer_powers_of_i(n)
        if n in (fl, fl + 1):
            terms[float(n)] = sum(i_n * (R ** (k - 1) / _falling_product(beta, k))
                                  * rk[n - k + 1] for k in range(1, fl))
        else:
            terms[float(n)] = i_n * rk[n] / (beta - n)
    if beta <= cutoff:
        terms[beta] = terms.get(beta, 0j) + beta_weight * R ** beta

    if is_integer:
        ib = _integer_powers_of_i(fl)
        singular = SingularPart(
            beta=beta, R=R, floor_exponent=fl,
            coef_floor=0j,
            coef_floor_plus_one=-P * _integer_powers_of_i(fl + 1) / 2.0,
            coef_beta=P * _integer_powers_of_i(fl + 1) / 2.0,
            coef_log=-P * ib,
        )
    else:
        s_floor = P * _integer_powers_of_i(fl) / (beta - fl)
        s_floor1 = P * _integer_powers_of_i(fl + 1) / (2.0 * (beta - fl - 1.0))
        singular = SingularPart(
            beta=beta, R=R, floor_exponent=fl,
            coef_floor=s_floor,
            coef_floor_plus_one=s_floor1,
            coef_beta=-(s_floor + s_floor1),
            coef_log=0j,
        )

    regular = GenSeries(spec=spec, variable=Variable.ASCENDING,
                        normalization=Normalization.RAW, terms=terms, cutoff=cutoff)
    return ParetoExpansion(beta=beta, R=R, regular=regular, singular=singular,
                           snapped_to_integer=snapped)


def negative_tail_fourier(beta: float, R: float,
                          cutoff: float = DEFAULT_CUTOFF) -> ParetoExpansion:
    """Transform of the matching tail on (-inf, -R], under the phase
    convention e^{i(beta+1)pi} |x|^(-beta-1) for x < -R.

    Equals e^{i(beta+1)pi} times the positive-tail expansion with a
    conjugated kernel; for z > 0 the basis functions are real, so only
    the coefficients conjugate.
    """
    pos = pareto_fourier(beta, R, cutoff)
    phase = cmath.exp(1j * math.pi * (pos.beta + 1.0))
    flipped = {key: phase * c.conjugate() for key, c in pos.regular.terms.items()}
    regular = pos.regular.with_terms(flipped)
    singular = pos.singular.conjugate_scaled(phase)
    return ParetoExpansion(beta=pos.beta, R=R, regular=regular, singular=singular,
                           snapped_to_integer=pos.snapped_to_integer)


@dataclass(frozen=True)
class CancellationResidual:
    """What is left of the singular block when a weighted positive tail
    is combined with its negative counterpart.

    A nonzero ``coef_log`` means the pair still carries a logarithm and
    the two-sided tail cannot be expanded in pure powers.
    """

    beta: float
    R: float
    floor_exponent: int
    coef_floor: complex
    coef_floor_plus_one: complex
    coef_beta: complex
    coef_log: complex
    value: complex

    def __complex__(self) -> complex:
        return self.value

    @property
    def log_term_cancels(self) -> bool:
        return abs(self.coef_log) <= 1e-14 * max(1.0, abs(self.coef_beta))


def cancellation_residual(a_beta: complex, beta: float, R: float,
                          z: float) -> CancellationResidual:
    """Im(a_beta) f_beta(z) + Im(e^{i(beta+1)pi} a_beta) conj(f_beta(z)),
    decomposed on the singular basis and evaluated at z."""
    if beta <= 0:
        raise InvalidArgumentError("tail exponent must be positive")
    if z <= 0:
        raise InvalidArgumentError("the residual is defined for z > 0")
    exp = pareto_fourier(beta, R, cutoff=2.0)  # only the singular block matters
    s = exp.singular
    w1 = complex(a_beta).imag
    phase = cmath.exp(1j * math.pi * (exp.beta + 1.0))
    w2 = (phase * complex(a_beta)).imag

    def mix(c: complex) -> complex:
        return w1 * c + w2 * c.conjugate()

    out = CancellationResidual(
        beta=exp.beta, R=R, floor_exponent=s.floor_exponent,
        coef_floor=mix(s.coef_floor),
        coef_floor_plus_one=mix(s.coef_floor_plus_one),
        coef_beta=mix(s.coef_beta),
        coef_log=mix(s.coef_log),
        value=w1 * s.evaluate(z) + w2 * s.evaluate(z).conjugate(),
    )
    return out
