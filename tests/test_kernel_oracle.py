"""The series kernels against high-precision oracles at the depths they
run at.

The oracles evaluate, in mpmath at 60 digits, the textbook algorithms
that the Euler-operator recurrence replaced: the reciprocal as a
geometric series of repeated products, fractional powers as the
binomial sum, the exponential as its power series, reversion as a
fixed-point iteration (checked against the Lagrange-Buermann closed
form, which stands in for it at depth), products as the double sum
over exponent pairs, and composition as one binomial sum per outer
term.  None of them shares code or method with the recurrence.

Each test runs on the semigroup generated by 1 and one alpha, with
exponents kept exactly as integer multiples of 1/unit: alpha = 2/5,
and the near-resonant alpha = 5001/10000, whose grid keeps 0.5001 and
0.5 + 0.0001 k apart from the integers and half-integers they nearly
hit.  The test series is the tail of F = z(1 + b w^alpha + 0.3 w),
w = 1/z, with b on the symmetric phase: its support generates the
whole grid.  Every case runs again without the w term, where the
kernels run on the multiples of alpha alone, as the stable laws do.
"""

import math
from dataclasses import dataclass, replace

import pytest

mpmath = pytest.importorskip("mpmath")
from mpmath import mpc, mpf  # noqa: E402

from powertail.semigroup import SemigroupSpec  # noqa: E402
from powertail.series import (GenSeries, Normalization, Variable,  # noqa: E402
                              binomial_power, compose_F, f_form, graded_exp,
                              identity_f_form, product, reciprocal, revert_F)


@pytest.fixture(autouse=True)
def _sixty_digits():
    """Every oracle runs at 60 digits, whatever precision an earlier test
    module left in mpmath's global context."""
    with mpmath.workdps(60):
        yield


# termwise |kernel - oracle| / max(1, |oracle|): a few thousand ulps,
# room for rounding carried through ~120 bands of a recurrence
TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    unit: int       # exponents in units of 1/unit
    alpha: int      # alpha in those units
    w: float = 0.3  # weight of the w term

    @property
    def spec(self):
        return SemigroupSpec.with_alphas(self.alpha / self.unit)

    @property
    def b(self):
        return mpmath.exp(1j * mpmath.pi * (1 - mpf(self.alpha) / self.unit / 2))

    @property
    def tail(self):
        """h(w) = b w^alpha + (weight) w."""
        return {self.alpha: self.b, **({self.unit: mpf(self.w)} if self.w else {})}

    def series_tail(self, terms=None):
        """terms (default the tail) keyed by exponent, as doubles."""
        return {e / self.unit: complex(c) for e, c in (terms or self.tail).items()}


TWO_FIFTHS = Lattice(5, 2)
NEAR_HALF = Lattice(10000, 5001)


def _mul(a, b, top):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e <= top:
                out[e] = out.get(e, 0) + c1 * c2
    return out


def _power_sum(h, coefs, top):
    """sum_n coefs(n) h^n by repeated products, truncated at top;
    h has no constant term, so the powers die out."""
    acc, p, n = {0: mpc(1)}, {0: mpc(1)}, 0
    while p:
        n += 1
        p = _mul(p, h, top)
        c = coefs(n)
        for e, v in p.items():
            acc[e] = acc.get(e, 0) + c * v
    return acc


def _binomial(beta):
    return lambda n: mpmath.binomial(beta, n)


def _fixed_point_revert(lat, top):
    """Tail of the inverse form by f <- -sum_g b_g w^g (1 + f)^(1-g).

    Pass t is exact below (t + 1) * lead, so it is computed only that
    far; the iteration itself is the unaccelerated one."""
    tail = lat.tail
    lead = min(tail)
    f, t = {}, 0
    while (t + 1) * lead <= top:
        reach = min(top, (t + 2) * lead)
        new = {}
        for g, bg in tail.items():
            part = {e: c for e, c in f.items() if e <= reach - g}
            pw = _power_sum(part, _binomial(1 - mpf(g) / lat.unit), reach - g)
            for e, c in pw.items():
                new[e + g] = new.get(e + g, 0) - bg * c
        f, t = new, t + 1
    return f


def _multinomial_coefficient(lat, beta, e):
    """[u^e] (1 + h(u))^beta in closed form: the sum over a alpha + d = e
    of beta (beta - 1) ... (beta - a - d + 1) / (a! d!) b^a 0.3^d."""
    tail = lat.tail
    total = mpc(0)
    for a in range(e // lat.alpha + 1):
        rest = e - a * lat.alpha
        if rest % lat.unit:
            continue
        d = rest // lat.unit
        falling = mpmath.rf(beta - a - d + 1, a + d)
        total += (falling / (math.factorial(a) * math.factorial(d))
                  * tail[lat.alpha] ** a * mpf(lat.w) ** d)
    return total


def _lagrange_revert(lat, top):
    """Tail f of the inverse form by Lagrange-Buermann inversion:
    [w^s] (1 + f) = [u^s] (phi^(s-1) - u phi'(u) phi^(s-2)) with
    phi = 1 + h, one closed-form coefficient per lattice exponent s."""
    lattice = {a * lat.alpha + d * lat.unit
               for a in range(top // lat.alpha + 1) for d in range(top // lat.unit + 1)}
    f = {}
    for s in sorted(e for e in lattice if 0 < e <= top):
        beta = mpf(s) / lat.unit
        c = _multinomial_coefficient(lat, beta - 1, s)
        for g, bg in lat.tail.items():
            if s >= g:
                c -= mpf(g) / lat.unit * bg * _multinomial_coefficient(lat, beta - 2, s - g)
        if c != 0:
            f[s] = c
    return f


def _worst(lat, series, ref, top):
    """Largest |kernel - oracle| / max(1, |oracle|) over every exponent."""
    keys = set(ref) | {round(g * lat.unit) for g in series.terms}
    worst = 0.0
    for e in keys:
        if e > top:
            continue
        want = complex(ref.get(e, 0))
        got = series.coefficient(e / lat.unit)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def _one_plus_tail(lat, cutoff):
    return GenSeries(lat.spec, Variable.DESCENDING, Normalization.RAW,
                     {0.0: 1.0, **lat.series_tail()}, cutoff)


def _cases(*rows):
    """Each (lattice, params...) row as a parametrize case named by its
    params, once with the w term (the whole grid) and once without (the
    multiples of alpha, marked alpha-only), the near-resonant lattice
    marked; that grid has about 600 exponents at cutoff 24."""
    cases = []
    for w in (0.3, 0.0):
        for lat, *params in rows:
            name = ("" if lat.unit == TWO_FIFTHS.unit else "0.5001-") \
                + ("" if w else "alpha-only-") + "-".join(str(p) for p in params)
            cases.append(pytest.param(replace(lat, w=w), *params, id=name))
    return cases


DEPTHS = _cases((TWO_FIFTHS, 24), (TWO_FIFTHS, 48), (NEAR_HALF, 24))


@pytest.mark.parametrize("lat,cutoff", DEPTHS)
def test_reciprocal_matches_geometric_series(lat, cutoff):
    top = cutoff * lat.unit
    minus_h = {e: -c for e, c in lat.tail.items()}
    ref = _power_sum(minus_h, lambda n: 1, top)
    assert _worst(lat, reciprocal(_one_plus_tail(lat, cutoff)), ref, top) < TOL


@pytest.mark.parametrize("lat,cutoff,beta", _cases(
    (TWO_FIFTHS, 24, 2.5), (TWO_FIFTHS, 48, -0.7), (TWO_FIFTHS, 48, 2.5),
    (NEAR_HALF, 24, -0.7)))
def test_binomial_power_matches_binomial_sum(lat, cutoff, beta):
    top = cutoff * lat.unit
    ref = _power_sum(lat.tail, _binomial(mpf(beta)), top)
    got = binomial_power(_one_plus_tail(lat, cutoff), beta)
    assert _worst(lat, got, ref, top) < TOL


@pytest.mark.parametrize("lat,cutoff", DEPTHS)
def test_graded_exp_matches_power_series(lat, cutoff):
    top = cutoff * lat.unit
    ref = _power_sum(lat.tail, lambda n: 1 / mpmath.factorial(n), top)
    h = GenSeries(lat.spec, Variable.ASCENDING, Normalization.RAW,
                  lat.series_tail(), float(cutoff))
    assert _worst(lat, graded_exp(h), ref, top) < TOL


def test_lagrange_oracle_agrees_with_fixed_point_reversion():
    for lat in (TWO_FIFTHS, NEAR_HALF, replace(TWO_FIFTHS, w=0), replace(NEAR_HALF, w=0)):
        top = 8 * lat.unit
        fixed = _fixed_point_revert(lat, top)
        closed = _lagrange_revert(lat, top)
        for e in set(fixed) | set(closed):
            assert abs(fixed.get(e, 0) - closed.get(e, 0)) < mpf(10) ** -50


@pytest.mark.parametrize("lat,cutoff", DEPTHS)
def test_revert_matches_lagrange_inversion(lat, cutoff):
    top = cutoff * lat.unit
    ref = {0: mpc(1), **_lagrange_revert(lat, top)}
    F = f_form(lat.spec, lat.series_tail(), float(cutoff))
    assert _worst(lat, revert_F(F), ref, top) < TOL


@pytest.mark.parametrize("lat,cutoff", _cases(
    (TWO_FIFTHS, 24.0), (TWO_FIFTHS, 32.0), (NEAR_HALF, 24.0)))
def test_compose_with_reversion_is_identity(lat, cutoff):
    F = f_form(lat.spec, lat.series_tail(), cutoff)
    back = compose_F(F, revert_F(F))
    ident = identity_f_form(lat.spec, cutoff)
    worst = max(abs(back.terms.get(g, 0j) - ident.terms.get(g, 0j))
                for g in set(back.terms) | set(ident.terms))
    assert worst < TOL


def _doubles(terms):
    """terms rounded to the doubles a kernel is given, back at 60 digits."""
    return {e: mpc(complex(c)) for e, c in terms.items()}


@pytest.mark.parametrize("norm", [Normalization.RAW, Normalization.GAMMA], ids=["raw", "gamma"])
@pytest.mark.parametrize("lat,cutoff", DEPTHS)
def test_product_matches_double_sum(lat, cutoff, norm):
    """(1 + h)^-1 times (1 + h)^-0.7, both dense; for GAMMA each pair is
    weighted by Gamma(e + 1) / (Gamma(e1 + 1) Gamma(e2 + 1)).  The sum at
    each exponent is at most 86 times its value: (1 + h)^2.5 for the
    second factor would cancel by up to 1e6 at 2/5@48, where the kernel
    stays within 3.1e-16 of the sum of |terms| but not within 1e-12 of
    the value."""
    top = cutoff * lat.unit
    f = _doubles(_power_sum({e: -c for e, c in lat.tail.items()}, lambda n: 1, top))
    g = _doubles(_power_sum(lat.tail, _binomial(mpf("-0.7")), top))
    gamma = {}

    def weight(e):
        if norm is Normalization.RAW:
            return 1
        if e not in gamma:
            gamma[e] = mpmath.gamma(mpf(e) / lat.unit + 1)
        return gamma[e]

    ref = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            if e <= top:
                ref[e] = ref.get(e, 0) + weight(e) / (weight(e1) * weight(e2)) * c1 * c2
    got = product(*(GenSeries(lat.spec, Variable.ASCENDING, norm, lat.series_tail(s),
                              float(cutoff)) for s in (f, g)))
    assert _worst(lat, got, ref, top) < TOL


@pytest.mark.parametrize("lat,cutoff", DEPTHS)
def test_compose_matches_binomial_sums(lat, cutoff):
    """F = z(1 + h) after H = z(1 + k), k = -h / 2: the composite form is
    (1 + k) + sum_g b_g w^g (1 + k)^(1 - g)."""
    top = cutoff * lat.unit
    k = {e: -c / 2 for e, c in lat.tail.items()}
    ref = {0: mpc(1), **k}
    for g, bg in lat.tail.items():
        for e, c in _power_sum(k, _binomial(1 - mpf(g) / lat.unit), top - g).items():
            ref[e + g] = ref.get(e + g, 0) + bg * c
    outer, inner = (f_form(lat.spec, lat.series_tail(t), float(cutoff)) for t in (lat.tail, k))
    assert _worst(lat, compose_F(outer, inner), ref, top) < TOL
