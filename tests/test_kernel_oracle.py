"""The series kernels against high-precision oracles at the depths they
run at.

The oracles evaluate, in mpmath at 60 digits, the textbook algorithms
that the Euler-operator recurrence replaced: the reciprocal as a
geometric series of repeated products, fractional powers as the
binomial sum, the exponential as its power series, and reversion as a
fixed-point iteration (checked against the Lagrange-Buermann closed
form, which stands in for it at depth).  None of them shares code or
method with the recurrence.

Everything lives on the semigroup generated by 1 and alpha = 2/5,
with exponents kept exactly as integer multiples of 1/5.  The test
series is the tail of F = z(1 + b w^alpha + 0.3 w), w = 1/z, with b on
the symmetric phase.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")
from mpmath import mp, mpc, mpf  # noqa: E402

from powertail.semigroup import SemigroupSpec  # noqa: E402
from powertail.series import (GenSeries, Normalization, Variable,  # noqa: E402
                              binomial_power, compose_F, f_form, graded_exp,
                              identity_f_form, reciprocal, revert_F)

mp.dps = 60
UNIT = 5                  # exponents in units of 1/5
ALPHA = 2                 # alpha = 2/5 in those units
SPEC = SemigroupSpec.with_alphas(0.4)
B_MP = mpmath.exp(1j * mpmath.pi * (1 - mpf(ALPHA) / UNIT / 2))
B = complex(B_MP)
TAIL = {ALPHA: B_MP, UNIT: mpf("0.3")}       # h(w) = b w^alpha + 0.3 w
# termwise |kernel - oracle| / max(1, |oracle|): a few thousand ulps,
# room for rounding carried through ~120 bands of a recurrence
TOL = 1e-12


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


def _fixed_point_revert(tail, top):
    """Tail of the inverse form by f <- -sum_g b_g w^g (1 + f)^(1-g).

    Pass t is exact below (t + 1) * lead, so it is computed only that
    far; the iteration itself is the unaccelerated one."""
    lead = min(tail)
    f, t = {}, 0
    while (t + 1) * lead <= top:
        reach = min(top, (t + 2) * lead)
        new = {}
        for g, bg in tail.items():
            part = {e: c for e, c in f.items() if e <= reach - g}
            pw = _power_sum(part, _binomial(1 - mpf(g) / UNIT), reach - g)
            for e, c in pw.items():
                new[e + g] = new.get(e + g, 0) - bg * c
        f, t = new, t + 1
    return f


def _multinomial_coefficient(beta, e):
    """[u^e] (1 + h(u))^beta in closed form: the sum over a alpha + d = e
    of beta (beta - 1) ... (beta - a - d + 1) / (a! d!) b^a 0.3^d."""
    total = mpc(0)
    for a in range(e // ALPHA + 1):
        rest = e - a * ALPHA
        if rest % UNIT:
            continue
        d = rest // UNIT
        falling = mpmath.rf(beta - a - d + 1, a + d)
        total += (falling / (math.factorial(a) * math.factorial(d))
                  * TAIL[ALPHA] ** a * TAIL[UNIT] ** d)
    return total


def _lagrange_revert(top):
    """Tail f of the inverse form by Lagrange-Buermann inversion:
    [w^s] (1 + f) = [u^s] (phi^(s-1) - u phi'(u) phi^(s-2)) with
    phi = 1 + h, one closed-form coefficient per exponent s."""
    f = {}
    for s in range(1, top + 1):
        beta = mpf(s) / UNIT
        c = _multinomial_coefficient(beta - 1, s)
        for g, bg in TAIL.items():
            if s >= g:
                c -= mpf(g) / UNIT * bg * _multinomial_coefficient(beta - 2, s - g)
        if c != 0:
            f[s] = c
    return f


def _worst(series, ref, top):
    """Largest |kernel - oracle| / max(1, |oracle|) over every exponent."""
    keys = set(ref) | {round(g * UNIT) for g in series.terms}
    worst = 0.0
    for e in keys:
        if e > top:
            continue
        want = complex(ref.get(e, 0))
        got = series.coefficient(e / UNIT)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def _one_plus_tail(cutoff):
    return GenSeries(SPEC, Variable.DESCENDING, Normalization.RAW,
                     {0.0: 1.0, 0.4: B, 1.0: 0.3}, cutoff)


@pytest.mark.parametrize("cutoff", [24, 48])
def test_reciprocal_matches_geometric_series(cutoff):
    top = cutoff * UNIT
    minus_h = {e: -c for e, c in TAIL.items()}
    ref = _power_sum(minus_h, lambda n: 1, top)
    assert _worst(reciprocal(_one_plus_tail(cutoff)), ref, top) < TOL


@pytest.mark.parametrize("cutoff,beta", [(24, 2.5), (48, -0.7), (48, 2.5)])
def test_binomial_power_matches_binomial_sum(cutoff, beta):
    top = cutoff * UNIT
    ref = _power_sum(TAIL, _binomial(mpf(beta)), top)
    got = binomial_power(_one_plus_tail(cutoff), beta)
    assert _worst(got, ref, top) < TOL


@pytest.mark.parametrize("cutoff", [24, 48])
def test_graded_exp_matches_power_series(cutoff):
    top = cutoff * UNIT
    ref = _power_sum(TAIL, lambda n: 1 / mpmath.factorial(n), top)
    h = GenSeries(SPEC, Variable.ASCENDING, Normalization.RAW,
                  {0.4: B, 1.0: 0.3}, float(cutoff))
    assert _worst(graded_exp(h), ref, top) < TOL


def test_lagrange_oracle_agrees_with_fixed_point_reversion():
    top = 8 * UNIT
    fixed = _fixed_point_revert(TAIL, top)
    closed = _lagrange_revert(top)
    for e in set(fixed) | set(closed):
        assert abs(fixed.get(e, 0) - closed.get(e, 0)) < mpf(10) ** -50


@pytest.mark.parametrize("cutoff", [24, 48])
def test_revert_matches_lagrange_inversion(cutoff):
    top = cutoff * UNIT
    ref = {0: mpc(1), **_lagrange_revert(top)}
    F = f_form(SPEC, {0.4: B, 1.0: 0.3}, float(cutoff))
    assert _worst(revert_F(F), ref, top) < TOL


@pytest.mark.parametrize("cutoff", [24.0, 32.0])
def test_compose_with_reversion_is_identity(cutoff):
    F = f_form(SPEC, {0.4: B, 1.0: 0.3}, cutoff)
    back = compose_F(F, revert_F(F))
    ident = identity_f_form(SPEC, cutoff)
    worst = max(abs(back.terms.get(g, 0j) - ident.terms.get(g, 0j))
                for g in set(back.terms) | set(ident.terms))
    assert worst < TOL
