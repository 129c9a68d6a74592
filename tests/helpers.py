"""Shared builders for the test suite: a few standard laws as moment
series, termwise comparison utilities, the term-by-term series
evaluator and the rounding bound within which ``series.evaluate`` must
agree with it, two coefficient-by-coefficient Euler-operator kernels,
over the pair list and over a progression, that ``series._euler_rows``
must reproduce, and
the plain sine growth profile loop that ``sin_growth_profile`` must
reproduce bit for bit, and the closed-form moments of the four
drift-free stable families in 40 digits."""

import cmath
import math

import numpy as np

from powertail import series
from powertail.diophantine import SinGrowthProfile
from powertail.semigroup import SemigroupSpec, density_constant
from powertail.series import (Branch, EvalResult, GrowthBound,
                              Normalization, Variable, gamma_factor, growth_fit)
from powertail.transforms import moment_series

NAT = SemigroupSpec.natural()
HALF = SemigroupSpec.with_alphas(0.5)


def cauchy_moments(cutoff=20.0):
    # m_n = i^n: the standard Cauchy law, tail 1/(pi x^2) on both sides
    return moment_series(NAT, {float(n): 1j ** n for n in range(int(cutoff) + 1)},
                         cutoff)


def semicircle_moments(cutoff=20.0):
    # even moments are the Catalan numbers
    terms = {}
    n = 0
    while 2 * n <= cutoff:
        terms[float(2 * n)] = float(math.comb(2 * n, n) // (n + 1))
        n += 1
    return moment_series(NAT, terms, cutoff)


def bernoulli_moments(cutoff=20.0):
    # (delta_{-1} + delta_{+1}) / 2: every even moment is 1
    terms = {float(n): (1.0 if n % 2 == 0 else 0.0)
             for n in range(int(cutoff) + 1)}
    return moment_series(NAT, terms, cutoff)


def symmetric_phase(alpha):
    """Tail weight that places a symmetric stable law inside the
    admissible phase window for every alpha in (0, 2]."""
    return cmath.exp(1j * math.pi * (1.0 - alpha / 2.0))


def closed_form_moments(kind, alpha, b, grid):
    """The moments of the drift-free stable law of ``kind`` ("classical",
    "boolean", "monotone" or "free") at every exponent tau of ``grid``,
    in mpmath at 40 digits: on a multiple tau of alpha k they are b^k times
    Gamma(tau + 1) / k!, 1, (1/alpha)_k / k! or C(tau, k - 1) / k, and
    elsewhere 0.  tau is the double the grid stores, and the classical
    Gamma is read at tau + 1 rounded to a double, where the GAMMA
    normalization reads it: the exact alpha k + 1 would move it by up to
    psi(tau + 1) ulp(tau + 1) / 2, 1.3e-14 of the moment at alpha = 1.3,
    tau = 31.2, which is the grid's rounding of its exponents."""
    import mpmath
    out = {}
    with mpmath.workdps(40):
        a, w = mpmath.mpf(alpha), mpmath.mpc(b)
        for tau in grid.values.tolist():
            k = round(tau / alpha)
            if abs(tau - k * alpha) > 1e-9 * max(1.0, tau):
                out[tau] = 0j
                continue
            t = mpmath.mpf(tau)
            if kind == "classical":
                c = mpmath.gamma(mpmath.mpf(tau + 1.0)) / mpmath.factorial(k)
            elif kind == "boolean":
                c = 1
            elif kind == "monotone":
                c = mpmath.rf(1 / a, k) / mpmath.factorial(k)
            else:
                c = mpmath.binomial(t, k - 1) / k if k else 1
            out[tau] = complex(w ** k * c)
    return out


def worst_against(m, want):
    """Worst |m_tau - want_tau| / max(1, |want_tau|) over the exponents of
    want, a map that covers m's grid."""
    return max(abs(m.moment(tau) - e) / max(1.0, abs(e)) for tau, e in want.items())


def worst_termwise(a, b):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys),
               default=0.0)


def worst_termwise_rel(a, b):
    keys = set(a.terms) | set(b.terms)
    out = 0.0
    for k in keys:
        x = a.terms.get(k, 0j)
        y = b.terms.get(k, 0j)
        out = max(out, abs(x - y) / max(1.0, abs(y)))
    return out


def reference_terms(f, z, branch=Branch.PRINCIPAL):
    """The terms of f at z, each as Python complex arithmetic rounds it:
    c z^(+-(gamma + shift)), divided by Gamma(gamma + 1) under GAMMA
    normalization, by ascending gamma."""
    z = complex(z)
    sign = 1.0 if f.variable is Variable.ASCENDING else -1.0
    needs_log = any((k + f.exponent_shift) != 0 for k in f.terms)
    L = series._branch_log(z, branch) if needs_log else 0j
    out = []
    for k, c in sorted(f.terms.items()):
        e = k + f.exponent_shift
        term = c if e == 0 else c * cmath.exp(sign * e * L)
        if f.normalization is Normalization.GAMMA:
            term /= gamma_factor(k + 1.0)
        out.append(term)
    return out


def reference_evaluate(f, z, branch=Branch.PRINCIPAL):
    """Partial sum at z one term at a time in Python complex arithmetic,
    with the tail bound of ``series.evaluate`` (no guard warning)."""
    z = complex(z)
    total = 0j
    for term in reference_terms(f, z, branch):
        total += term
    growth = growth_fit(f) if f.terms else GrowthBound(0.0)
    absz = abs(z)
    c = density_constant(f.spec, max(1, int(math.ceil(f.cutoff))))
    return EvalResult(value=total, tail_bound=series._tail_bound(f, absz, growth, c)
                      if absz > 0 else math.inf)


def dot_bound(f, z, branch=Branch.PRINCIPAL, scale=2.0):
    """scale * n * u * sum |t_k| over the loop's n terms t_k of f at z,
    u = 2^-53.  A sum of n terms in any order, the loop's or a dot
    product's, is within about n u sum |t_k| of the exact sum of its
    terms (Higham, Accuracy and Stability, 3.1), so two of them are
    within twice that of each other."""
    terms = reference_terms(f, z, branch)
    return scale * len(terms) * 2.0 ** -53 * math.fsum(abs(t) for t in terms)


def reference_sin_growth_profile(cert, N):
    """The sine growth profile with sin and log taken at every n = 1..N."""
    frac = cert.high_precision_fraction(min_q=N * 10 ** 13)
    p, q = frac.numerator, frac.denominator
    max_lin = -math.inf
    max_log = -math.inf
    for n in range(1, N + 1):
        r = (p * n) % q
        dist = min(r, q - r)
        s = math.sin(math.pi * (dist / q)) if dist else 0.0
        growth = math.inf if s == 0.0 else -math.log(s)
        max_lin = max(max_lin, growth / n)
        if n >= 2:
            max_log = max(max_log, growth / math.log(n))
    return SinGrowthProfile(running_max_linear=max_lin, running_max_log=max_log)


def _row_sets(h, R, split):
    """(first row, end row, unknown) of each set of rows."""
    return [(0, R, h)] if split is None else [(0, split, h[0]), (split, R, h[1])]


def reference_euler_rows(grid, h, betas, kind, shifts=None, tail_coef=None, split=None):
    """``series._euler_rows`` one coefficient at a time over the pair list:
    coefficient k sums, over the pairs (i, j) -> k with j > 0, less those
    whose h_j is 0 when h is known, p_i h_j (beta u_j - v_i), divided by
    d_k, as one dot for one row and one product and column sum for
    several, each set of rows on its own.  A single row is filled whole;
    of several, one shifted by the exponent at index s is filled while
    k < reach[s].  With a tail each unknown h_k is set first from the
    pairs (i, shifts[r]) -> k, in pair-list order, of the rows of the
    other set, or of its own where it is alone."""
    pl = grid.pairs()
    n, R = len(grid), len(betas)
    u, v, d = series._euler_weights(kind, pl.weights)
    P = np.zeros((n, R), dtype=np.complex128)
    P[0] = 1.0
    sets = _row_sets(h, R, split)
    runs = np.searchsorted(pl.k, np.arange(n + 1)).tolist()
    for k in range(1, n):
        i, j = pl.i[runs[k]:runs[k + 1]], pl.j[runs[k]:runs[k + 1]]
        for s, (_, _, x) in enumerate(sets if tail_coef is not None else ()):
            lo, hi, _ = sets[s - 1]
            row_of = {int(sh): r for r, sh in enumerate(shifts[lo:hi], lo)}
            tail = [(a, row_of[b]) for a, b in zip(i.tolist(), j.tolist()) if b in row_of]
            if tail:
                ti, tr = np.array(tail).T
                x[k] = np.add.reduceat(tail_coef[tr] * P[ti, tr], [0])[0]
        keep = j > 0 if tail_coef is not None else h[j] != 0
        i, j = i[keep], j[keep]
        if R == 1 and tail_coef is None:
            fac = h[j] * (betas[0] * u[j] - v[i])
            P[k, 0] = np.dot(fac, P[i, 0]) / d[k]
            continue
        for lo, hi, x in sets:
            rows = hi - lo if shifts is None else sum(1 for s in shifts[lo:hi]
                                                      if k < pl.reach[s])
            if rows:
                fac = x[j, None] * (betas[lo:lo + rows] * u[j, None] - v[i, None])
                P[k, lo:lo + rows] = (P[i, lo:lo + rows] * fac).sum(0) / d[k]
    return P.T


def reference_progression_rows(h, betas, kind, shifts=None, tail_coef=None, split=None):
    """``series._euler_rows`` on the grid 0, g, ..., (n - 1) g, one
    coefficient at a time: the sum over i < k of p_i h_(k-i)
    (beta u_(k-i) - v_i) with the index as weight, divided by d_k, as one
    dot for one row and one product and column sum for several, each set
    of rows on its own; with a tail each unknown h_k is set first from
    the tail terms of the other set, or of its own where it is alone, by
    descending row."""
    n, R = h.shape[-1], len(betas)
    u, v, d = series._euler_weights(kind, np.arange(float(n)))
    P = np.zeros((n, R), dtype=np.complex128)
    P[0] = 1.0
    sets = _row_sets(h, R, split)
    for k in range(1, n):
        for s, (_, _, x) in enumerate(sets if tail_coef is not None else ()):
            lo, hi, _ = sets[s - 1]
            rows = [r for r in reversed(range(lo, hi)) if shifts[r] <= k]
            if rows:
                terms = tail_coef[rows] * P[k - shifts[rows], rows]
                x[k] = np.add.reduceat(terms, [0])[0]
        if R == 1 and tail_coef is None:
            fac = h[k:0:-1] * (betas[0] * u[k:0:-1] - v[:k])
            P[k, 0] = np.dot(fac, P[:k, 0]) / d[k]
            continue
        for lo, hi, x in sets:
            rows = hi - lo if shifts is None else sum(1 for s in shifts[lo:hi] if s + k < n)
            if rows:
                fac = x[k:0:-1, None] * (betas[lo:lo + rows] * u[k:0:-1, None] - v[:k, None])
                P[k, lo:lo + rows] = (P[:k, lo:lo + rows] * fac).sum(0) / d[k]
    return P.T
