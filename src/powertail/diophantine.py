"""Certificates for real numbers and Diophantine-approximation evidence.

The question answered here: does a real beta admit rational
approximations |beta - p/q| < b^(-q) for every base b > 1 infinitely
often?  Such numbers make cot(pi beta n) blow up along a subsequence
faster than any geometric envelope, which is exactly what breaks the
real-to-complex lift of tail coefficients on the semigroup generated
by beta.

A certificate says how a number is known, which decides what can be
concluded:

* RationalCertificate: the number is exactly p/q.
* QuadraticCertificate: (P + sqrt(D))/Q exactly; continued fraction
  via the integer algorithm, so partial quotients are exact and
  (being eventually periodic) bounded.
* CFCertificate: the continued fraction expansion itself, as a
  restartable generator of partial quotients.
* FloatCertificate: a bare double.  Finite precision can supply
  counter-evidence but can never certify membership.
* TransformedCertificate: an exact rational Moebius image
  (a x + b)/(c x + d) of another certificate.  Membership in the
  approximation class is invariant under such maps, so certification
  flags propagate through transforms.

The packaged extreme example has partial quotients a_{k+1} = 10^(k q_k)
(q_k the k-th continuant).  Then a_{k+1} >= b^{q_k} reduces to
10^(k q_k) >= b^(q_k), i.e. k >= log10 b, which holds for every b from
some index on.  That growth law is proved here, exponent against
exponent, not re-checked at run time; the quotients themselves stop
being materializable almost immediately and are never needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator

from .errors import (
    CertificateError,
    InvalidArgumentError,
    ResourceGuardError,
)

_MAX_QUOTIENT_DIGITS = 100_000
# hard cap on the length of a sine growth profile
MAX_PROFILE_N = 100_000
# largest q_limit: the first convergent past it still has a float 1 / q
MAX_Q_LIMIT = 10 ** 300
# convergent witnesses below this denominator show spurious strength
_MIN_WITNESS_Q = 3


class Verdict(Enum):
    RATIONAL = "RATIONAL"
    CERTIFIED_IN_D = "CERTIFIED_IN_D"
    D_CANDIDATE = "D_CANDIDATE"
    NOT_IN_D_EVIDENCE = "NOT_IN_D_EVIDENCE"


@dataclass(frozen=True)
class ApproximationWitness:
    """One convergent denominator q with the distance of q*beta to the
    nearest integer, and the base implied by distance = b^(-q)."""

    q: int
    log10_distance: float
    implied_b: float


@dataclass(frozen=True)
class DiophantineEvidence:
    verdict: Verdict
    witnesses: tuple
    strongest_b: float
    tested_q_limit: int
    precision_limited: bool
    notes: str


@dataclass(frozen=True)
class ClassifyParams:
    q_limit: int = 10 ** 5     # largest convergent denominator tested
    candidate_b: float = 10.0  # implied base at/above which we flag a candidate

    def __post_init__(self):
        q = self.q_limit
        if isinstance(q, bool) or not isinstance(q, int) or not 1 <= q <= MAX_Q_LIMIT:
            got = ("an integer of %d bits" % q.bit_length()
                   if isinstance(q, int) and q.bit_length() > 64 else repr(q))
            raise InvalidArgumentError(
                "q limit must be an integer from 1 to 10**300, got %s" % got)


# -- certificates --------------------------------------------------------


class RealCertificate:
    """Base interface; concrete kinds override what they can answer."""

    def exact_rational(self) -> Fraction | None:
        return None

    def growth_law(self) -> str | None:
        """A proved growth law of the partial quotients giving
        a_{k+1} >= b^{q_k} for all large k for EVERY base b, or None."""
        return None

    def witnesses(self) -> list[ApproximationWitness]:
        """Approximation witnesses known in closed form."""
        return []

    def partial_quotients(self) -> Iterator[int]:
        raise NotImplementedError

    def quotients_exact(self) -> bool:
        """Whether the quotient stream reflects the number exactly
        (as opposed to a finite-precision shadow)."""
        return True

    def high_precision_fraction(self, min_q: int) -> Fraction:
        """Rational approximation with denominator >= min_q when the
        certificate can deliver one; error at most 1/(q * min_q)."""
        p, q = 0, 1
        for pk, qk in convergents_stream(self):
            p, q = pk, qk
            if qk >= min_q:
                return Fraction(p, q)
        return Fraction(p, q)

    def describe(self) -> str:
        return type(self).__name__


def _fraction_quotients(frac: Fraction, trust: int | None = None) -> Iterator[int]:
    """Partial quotients of frac by Euclid's algorithm.  With a trust
    limit (at least 1, the first convergent denominator) the stream
    stops before the first convergent denominator above it."""
    p, q = frac.numerator, frac.denominator
    q_prev, q_cur = 1, 0
    while q:
        a, r = divmod(p, q)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if trust is not None and q_cur > trust:
            return
        yield a
        p, q = q, r


@dataclass(frozen=True)
class RationalCertificate(RealCertificate):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def exact_rational(self) -> Fraction:
        return self.value

    def partial_quotients(self) -> Iterator[int]:
        yield from _fraction_quotients(self.value)

    def high_precision_fraction(self, min_q: int) -> Fraction:
        return self.value

    def describe(self) -> str:
        return "rational %s" % self.value


def _floor_with_sqrt(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q) exactly, D >= 0 non-square, Q != 0."""
    s = math.isqrt(D)
    if Q > 0:
        return (P + s) // Q
    # (P + sqrt D) is irrational, so ceil = floor + 1
    return -((P + s) // (-Q)) - 1


@dataclass(frozen=True)
class QuadraticCertificate(RealCertificate):
    """The real (P + sqrt(D))/Q with integer P, D, Q; D non-square."""

    P: int
    D: int
    Q: int

    def __post_init__(self):
        if self.Q == 0:
            raise CertificateError("zero denominator")
        if self.D < 0:
            raise CertificateError("negative discriminant is not a real quadratic")
        if math.isqrt(self.D) ** 2 == self.D:
            raise CertificateError(
                "discriminant %d is a perfect square; use a RationalCertificate" % self.D)

    def partial_quotients(self) -> Iterator[int]:
        P, D, Q = self.P, self.D, self.Q
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        m, d = P, Q
        while True:
            a = _floor_with_sqrt(m, D, d)
            yield a
            m = a * d - m
            d = (D - m * m) // d

    def describe(self) -> str:
        return "quadratic (%d + sqrt(%d))/%d" % (self.P, self.D, self.Q)


def golden_ratio_certificate() -> QuadraticCertificate:
    return QuadraticCertificate(P=1, D=5, Q=2)


@dataclass(frozen=True)
class CFCertificate(RealCertificate):
    """Continued fraction [a0; a1, a2, ...] from a restartable factory."""

    factory: Callable[[], Iterator[int]]
    label: str = "continued fraction"

    def partial_quotients(self) -> Iterator[int]:
        for a in self.factory():
            if a.bit_length() > _MAX_QUOTIENT_DIGITS * 4:
                return  # stop materializing absurd quotients
            yield a

    def describe(self) -> str:
        return self.label


@dataclass(frozen=True)
class FloatCertificate(RealCertificate):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise CertificateError("float certificate needs a finite value")

    def exact_rational(self) -> None:
        return None  # the double is exact, the number it names is not

    def quotients_exact(self) -> bool:
        return False

    def precision_q_limit(self) -> int:
        """Convergents of the stored double track the underlying real
        only while q^2 stays below the representation error."""
        eps = max(abs(self.value), 1.0) * 2.0 ** -52
        return max(1, math.isqrt(int(0.25 / eps)))

    def partial_quotients(self) -> Iterator[int]:
        yield from _fraction_quotients(Fraction(self.value), self.precision_q_limit())

    def high_precision_fraction(self, min_q: int) -> Fraction:
        return Fraction(self.value)

    def describe(self) -> str:
        return "float %.17g" % self.value


def _moebius_apply(frac: Fraction, a, b, c, d) -> Fraction:
    den = c * frac + d
    if den == 0:
        raise CertificateError("Moebius transform pole hits the certified value")
    return (a * frac + b) / den


@dataclass(frozen=True)
class TransformedCertificate(RealCertificate):
    """Exact Moebius image (a x + b)/(c x + d) of a base certificate."""

    base: RealCertificate
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise CertificateError("degenerate transform (zero determinant)")

    def exact_rational(self) -> Fraction | None:
        base = self.base.exact_rational()
        if base is None:
            return None
        return _moebius_apply(base, self.a, self.b, self.c, self.d)

    def growth_law(self) -> str | None:
        inner = self.base.growth_law()
        if inner is None:
            return None
        return ("%s, composed with an exact rational Moebius map "
                "(approximation class is invariant)" % inner)

    def witnesses(self) -> list[ApproximationWitness]:
        return self.base.witnesses()

    def quotients_exact(self) -> bool:
        return self.base.quotients_exact()

    def high_precision_fraction(self, min_q: int) -> Fraction:
        # the Moebius map scales approximation quality by a bounded factor;
        # ask the base for a safety margin
        inner = self.base.high_precision_fraction(min_q * 1000)
        return _moebius_apply(inner, self.a, self.b, self.c, self.d)

    def partial_quotients(self) -> Iterator[int]:
        approx = self.high_precision_fraction(10 ** 24)
        yield from _fraction_quotients(approx, math.isqrt(approx.denominator))

    def describe(self) -> str:
        return "(%s x + %s)/(%s x + %s) of [%s]" % (
            self.a, self.b, self.c, self.d, self.base.describe())


class ExtremeGrowthCertificate(RealCertificate):
    """The packaged certificate with a_{k+1} = 10^(k q_k), a0 = 0, a1 = 10.

    Quotients explode immediately (a3 already has ~2*10^11 digits), so
    everything that matters is carried on the exponent scale: exact
    integers while they fit, base-10 logarithms after.
    """

    def describe(self) -> str:
        return "extreme growth continued fraction, a_{k+1} = 10^(k q_k)"

    def partial_quotients(self) -> Iterator[int]:
        yield 0
        yield 10
        q_prev, q_cur = 1, 10
        k = 1
        while True:
            digits = k * q_cur
            if digits > _MAX_QUOTIENT_DIGITS:
                return
            a = 10 ** digits
            yield a
            q_prev, q_cur = q_cur, a * q_cur + q_prev
            k += 1

    def growth_law(self) -> str:
        # a_{k+1} >= b^{q_k}  <=>  k * q_k >= q_k * log10(b)  <=>  k >= log10(b),
        # true for every k >= max(1, ceil(log10 b)) by construction, so a
        # run-time check of it could never fail
        return self.describe()

    def witnesses(self) -> list[ApproximationWitness]:
        """The witnesses at q1 = 10 and q2 = 10^11 + 1, the two the float
        range allows: log10 q3 = 2 q2 + log10 q2 is a float, log10 q4 =
        3 q3 + log10 q3 is not.  |q_k beta - p_k| is within a factor 2 of
        1/q_{k+1}, and the implied base is q_{k+1}^(1/q_k)."""
        q2 = 10 ** 11 + 1
        lq = [1.0, math.log10(float(q2))]
        lq.append(2 * float(q2) + lq[1])
        return [ApproximationWitness(q=q, log10_distance=-lq[k + 1],
                                     implied_b=10.0 ** (lq[k + 1] / 10.0 ** lq[k]))
                for k, q in enumerate((10, q2))]


def super_liouville_certificate() -> ExtremeGrowthCertificate:
    """The packaged certified member of the approximation class."""
    return ExtremeGrowthCertificate()


# -- convergents and profiles --------------------------------------------


def convergents_stream(cert: RealCertificate) -> Iterator[tuple[int, int]]:
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a in cert.partial_quotients():
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


def convergents(cert: RealCertificate, n: int) -> list[tuple[int, int]]:
    """First n continued-fraction convergents (fewer if the stream ends)."""
    out = []
    for pq in convergents_stream(cert):
        out.append(pq)
        if len(out) >= n:
            break
    return out


@dataclass(frozen=True)
class SinGrowthProfile:
    """How fast 1/|sin(pi beta n)| grows along n = 1..N: the largest
    log(1/|sin|)/n (geometric scale) and the largest log(1/|sin|)/log n
    over n >= 2 (power scale, on which badly approximable numbers stay
    bounded)."""

    running_max_linear: float
    running_max_log: float


def sin_growth_profile(cert: RealCertificate, N: int) -> SinGrowthProfile:
    """The profile of beta ~ p/q for n = 1..N.  r = p n mod q is stepped
    by adding p mod q, and sin and log are taken only where the distance
    d = min(r, q - r) can raise a maximum.

    Skip rule: with M and L the maxima (at least 0 by then) before
    n0 = 4, 8, 16, ..., take B = max(e^(-M n0), n0^(-L), smallest normal
    double).  Jordan's inequality sin(pi x) >= 2x on [0, 1/2] turns
    d >= B q into growth <= -log(2B) <= min(M n, L log n) - log 2 for all
    n >= n0, so neither maximum moves; the margin log 2 dwarfs the
    rounding of B, which the floor keeps normal.  The threshold
    floor(B q) + 1 is built from B's exact ratio, so q may pass the float
    range.  Every other n runs the plain loop's arithmetic, so the result
    is the same bit for bit.
    """
    if N < 1:
        raise InvalidArgumentError("N must be at least 1")
    if N > MAX_PROFILE_N:
        raise ResourceGuardError(
            "a growth profile up to N = %d exceeds the limit of %d" % (N, MAX_PROFILE_N))
    frac = cert.high_precision_fraction(min_q=N * 10 ** 13)
    p, q = frac.numerator, frac.denominator
    max_lin = -math.inf
    max_log = -math.inf
    step, r = p % q, 0
    # d = min(r, q - r) >= lo exactly when lo <= r <= hi = q - lo; lo = q skips nothing
    lo, hi, n0 = q, 0, 4
    for n in range(1, N + 1):
        r += step
        if r >= q:
            r -= q
        if n == n0:
            num, den = max(math.exp(-max_lin * n), n ** -max_log,
                           sys.float_info.min).as_integer_ratio()
            lo = q * num // den + 1
            hi, n0 = q - lo, 2 * n0
        if lo <= r <= hi:
            continue
        dist = min(r, q - r)
        s = math.sin(math.pi * (dist / q)) if dist else 0.0
        growth = math.inf if s == 0.0 else -math.log(s)
        max_lin = max(max_lin, growth / n)
        if n >= 2:
            max_log = max(max_log, growth / math.log(n))
    return SinGrowthProfile(running_max_linear=max_lin, running_max_log=max_log)


# -- classification -------------------------------------------------------


def _witnesses_from_convergents(cert: RealCertificate,
                                params: ClassifyParams) -> list[ApproximationWitness]:
    out = []
    prev: tuple[int, int] | None = None
    for p, q in convergents_stream(cert):
        if prev is not None:
            p0, q0 = prev
            # |q0 beta - p0| lies within (1/(q+q0), 1/q], so the implied
            # base is q^(1/q0); q may be past the float range, its log is not
            if q0 >= 1:
                try:
                    implied_b = 10.0 ** (math.log10(q) / q0)
                except OverflowError:
                    implied_b = math.inf
                out.append(ApproximationWitness(
                    q=q0, log10_distance=-math.log10(q), implied_b=implied_b))
        if q > params.q_limit:
            break
        prev = (p, q)
    return out


def classify(cert: RealCertificate,
             params: ClassifyParams = ClassifyParams()) -> DiophantineEvidence:
    """Weigh what the certificate can prove or suggest.

    Exact rationals are their own verdict.  A proved growth law of the
    partial quotients yields certification.  Otherwise
    convergent witnesses up to the denominator limit provide evidence
    one way (a very large implied base) or the other (all implied
    bases modest).  Float certificates are additionally fenced by
    their precision horizon and can never certify membership.
    """
    rat = cert.exact_rational()
    if rat is not None:
        return DiophantineEvidence(
            verdict=Verdict.RATIONAL, witnesses=(), strongest_b=math.inf,
            tested_q_limit=0, precision_limited=False,
            notes="exactly the rational %s; sin(pi beta n) vanishes on a lattice" % rat)

    law = cert.growth_law()
    if law is not None:
        return DiophantineEvidence(
            verdict=Verdict.CERTIFIED_IN_D, witnesses=tuple(cert.witnesses()),
            strongest_b=math.inf, tested_q_limit=0, precision_limited=False,
            notes="symbolic quotient growth law verified: for every base b the "
                  "approximation inequality holds from index ceil(log10 b) on "
                  "(%s)" % law)

    witnesses = _witnesses_from_convergents(cert, params)
    eligible = [w for w in witnesses if w.q >= _MIN_WITNESS_Q]
    strongest = max((w.implied_b for w in eligible), default=1.0)
    limited = not cert.quotients_exact()
    if strongest >= params.candidate_b:
        v = Verdict.D_CANDIDATE
        notes = ("a convergent with implied base %.3g exceeds the candidate "
                 "threshold %.3g; finite evidence only, not a certification"
                 % (strongest, params.candidate_b))
    else:
        v = Verdict.NOT_IN_D_EVIDENCE
        notes = ("all %d tested convergents up to q = %d imply bases at most "
                 "%.3g, below the candidate threshold %.3g"
                 % (len(eligible), params.q_limit, strongest, params.candidate_b))
    if limited:
        notes += "; float certificate, evidence fenced by precision horizon"
    return DiophantineEvidence(
        verdict=v, witnesses=tuple(witnesses), strongest_b=strongest,
        tested_q_limit=params.q_limit, precision_limited=limited, notes=notes)


# -- exact transforms ------------------------------------------------------


class TransformOp(Enum):
    SCALE = "scale"
    SHIFT = "shift"
    INVERT = "invert"


def transform_certificate(cert: RealCertificate, op: TransformOp,
                          amount: Fraction | int | None = None) -> RealCertificate:
    """Exact image of the certified number under scaling by a rational,
    shifting by a rational, or inversion.

    Rationals stay rationals, quadratics stay quadratics (integer
    triple arithmetic); everything else is wrapped as an exact Moebius
    image, through which growth laws propagate.
    """
    if op in (TransformOp.SCALE, TransformOp.SHIFT):
        if amount is None:
            raise InvalidArgumentError("%s needs a rational amount" % op.value)
        amount = Fraction(amount)
    elif amount is not None:
        raise InvalidArgumentError("inversion takes no amount")
    if op is TransformOp.SCALE and amount == 0:
        raise InvalidArgumentError("scaling by zero destroys the number")

    if isinstance(cert, RationalCertificate):
        v = cert.value
        if op is TransformOp.SCALE:
            return RationalCertificate(v * amount)
        if op is TransformOp.SHIFT:
            return RationalCertificate(v + amount)
        if v == 0:
            raise InvalidArgumentError("cannot invert zero")
        return RationalCertificate(1 / v)

    if isinstance(cert, QuadraticCertificate):
        P, D, Q = cert.P, cert.D, cert.Q
        if op is TransformOp.SCALE:
            u, v = amount.numerator, amount.denominator
            return _scaled_quadratic(P, D, Q, u, v)
        if op is TransformOp.SHIFT:
            u, v = amount.numerator, amount.denominator
            return QuadraticCertificate(P * v + u * Q, D * v * v, Q * v)
        return QuadraticCertificate(-Q * P, Q * Q * D, D - P * P)

    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    if op is TransformOp.SCALE:
        a = amount
    elif op is TransformOp.SHIFT:
        b = amount
    else:
        a, b, c, d = Fraction(0), Fraction(1), Fraction(1), Fraction(0)
    if isinstance(cert, TransformedCertificate):
        # compose the Moebius maps exactly
        na = a * cert.a + b * cert.c
        nb = a * cert.b + b * cert.d
        nc = c * cert.a + d * cert.c
        nd = c * cert.b + d * cert.d
        return TransformedCertificate(cert.base, na, nb, nc, nd)
    return TransformedCertificate(cert, a, b, c, d)


def _scaled_quadratic(P: int, D: int, Q: int, u: int, v: int) -> QuadraticCertificate:
    """(P + sqrt(D))/Q times u/v, keeping the sqrt coefficient at one."""
    if u > 0:
        return QuadraticCertificate(P * u, D * u * u, Q * v)
    # u < 0: u(P + sqrt D) = uP - sqrt(u^2 D); flip numerator and
    # denominator signs to restore the +sqrt form
    return QuadraticCertificate(-u * P, D * u * u, -Q * v)
