"""Acceptance gate: fourteen end-to-end criteria.

Each test prints exactly one ``AC## <label>: PASS`` or ``FAIL`` line
(visible under ``pytest -s``) and then asserts, so a red criterion also
fails the suite with the offending sub-checks in the message.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import (HALF, NAT, bernoulli_moments, cauchy_moments,
                     semicircle_moments, symmetric_phase, worst_termwise)
from powertail.diophantine import (ClassifyParams, TransformOp, Verdict,
                                   classify, golden_ratio_certificate,
                                   sin_growth_profile,
                                   super_liouville_certificate,
                                   transform_certificate)
from powertail.errors import NearIntegerWarning
from powertail.oracles import (brute_series_product, laplace_link_check,
                               rotated_pareto_transform, stieltjes_inversion)
from powertail.pareto import pareto_fourier
from powertail.semigroup import density_constant
from powertail.series import (compose_F, evaluate, growth_fit,
                              identity_f_form, revert_F)
from powertail.stable import (LastPassageParams, StableKind, StableParams,
                              SupremumSeriesParams, boolean_stable,
                              classical_stable, free_stable,
                              last_passage_coefficient, last_passage_density,
                              monotone_stable, mu_br, positive_stable_density,
                              stable_mixture, supremum_coefficient,
                              supremum_density)
from powertail.transforms import (F_from_moments, FourierEvaluator,
                                  boolean_convolve, classical_convolve,
                                  free_convolve, moment_series,
                                  moments_from_stieltjes, monotone_convolve,
                                  stieltjes_from_moments)


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def _report(tag, failures):
    print(f"{tag}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------


def test_ac01_pareto_expansion_matches_rotated_quadrature():
    failures = []
    for beta in (0.3, 0.5, 1.7, 2.5):
        exp = pareto_fourier(beta, 1.0, cutoff=20.0)
        for z in (0.05, 0.1, 0.3):
            q = complex(rotated_pareto_transform(beta, 1.0, z))
            rel = abs(exp.evaluate(z) - q) / abs(q)
            _check(failures, rel <= 1e-8,
                   f"beta={beta} z={z}: rel gap {rel:.3e}")
    _report("AC01 power-tail transform vs independent quadrature", failures)


def test_ac02_integer_tail_index_log_terms():
    failures = []
    frozen = {1.0: -1j, 2.0: 0.5 + 0j, 3.0: 1j / 6.0}
    for beta, want in frozen.items():
        got = pareto_fourier(beta, 1.0, cutoff=12.0).singular.coef_log
        _check(failures, abs(got - want) <= 1e-14,
               f"beta={beta}: coef_log {got} != {want}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exp = pareto_fourier(2.0 + 1e-12, 1.0, cutoff=12.0)
    _check(failures,
           any(isinstance(w.message, NearIntegerWarning) for w in caught),
           "no NearIntegerWarning for beta = 2 + 1e-12")
    _check(failures, exp.snapped_to_integer, "near-integer beta not snapped")
    _check(failures, abs(exp.singular.coef_log - 0.5) <= 1e-12,
           "snapped expansion lost the log coefficient")
    _report("AC02 log terms at integer tail indices", failures)


def test_ac03_resolvent_and_fourier_closed_forms():
    failures = []
    m = cauchy_moments(20.0)
    ft = FourierEvaluator(m)
    for z in (0.5, 1.0, 2.0):
        gap = abs(complex(ft(z)) - math.exp(-z))
        _check(failures, gap <= 1e-10, f"fourier z={z}: gap {gap:.3e}")
    G = stieltjes_from_moments(m)
    for z in (-3j, -5.0 - 2.0j):
        gap = abs(evaluate(G, z).value - 1.0 / (z - 1j))
        _check(failures, gap <= 1e-10, f"stieltjes z={z}: gap {gap:.3e}")
    dens = stieltjes_inversion(lambda z: evaluate(G, z).value, 5.0)
    gap = abs(dens - 1.0 / (26.0 * math.pi))
    _check(failures, gap <= 1e-7, f"inversion at 5: gap {gap:.3e}")
    _report("AC03 Cauchy law closed forms", failures)


def test_ac04_resolvent_coefficients_are_the_moments():
    failures = []
    laws = {
        "delta0": moment_series(NAT, {0.0: 1.0}, 8.0),
        "cauchy": cauchy_moments(12.0),
        "semicircle": semicircle_moments(12.0),
        "bernoulli": bernoulli_moments(12.0),
        "arcsine": monotone_stable(2.0, 2.0, cutoff=12.0),
        "classical-half": classical_stable(StableParams(alpha=0.5, b=1j),
                                           cutoff=6.0)[0],
        "free-1.3": free_stable(StableParams(alpha=1.3,
                                             b=symmetric_phase(1.3),
                                             kind=StableKind.FREE),
                                cutoff=6.0),
        "boolean-0.7": boolean_stable(StableParams(alpha=0.7,
                                                   b=symmetric_phase(0.7),
                                                   kind=StableKind.BOOLEAN),
                                      cutoff=6.0),
        "monotone-1.5": monotone_stable(1.5, 1j, cutoff=6.0),
        "mixture": stable_mixture([1.0 / (n + 1) for n in range(13)], 0.7,
                                  cutoff=6.0)[0],
    }
    assert len(laws) == 10
    for name, m in laws.items():
        G = stieltjes_from_moments(m)
        _check(failures, G.terms == dict(m.terms),
               f"{name}: resolvent coefficients differ from moments")
        back = moments_from_stieltjes(G)
        _check(failures, back.terms == dict(m.terms),
               f"{name}: moment roundtrip not exact")
    _report("AC04 moment-resolvent coefficient identity (10 laws)", failures)


def test_ac05_free_semicircle_and_reversion_roundtrip():
    failures = []
    m = free_stable(StableParams(alpha=2.0, b=1.0, kind=StableKind.FREE),
                    cutoff=14.0)
    catalan = {0.0: 1.0, 2.0: 1.0, 4.0: 2.0, 6.0: 5.0, 8.0: 14.0, 10.0: 42.0}
    for n, c in catalan.items():
        got = m.terms.get(n, 0j)
        _check(failures, abs(got - c) <= 1e-9, f"moment {n}: {got} != {c}")
    F = F_from_moments(m)
    round_trip = compose_F(F, revert_F(F))
    gap = worst_termwise(round_trip, identity_f_form(NAT, F.cutoff))
    _check(failures, gap <= 1e-10, f"reversion roundtrip gap {gap:.3e}")
    _report("AC05 free square law and compositional inverse", failures)


def test_ac06_convolution_identities():
    failures = []
    c = cauchy_moments(12.0)
    for name, conv in (("classical", classical_convolve),
                       ("free", free_convolve),
                       ("boolean", boolean_convolve),
                       ("monotone", monotone_convolve)):
        out = conv(c, c)
        worst = max(abs(out.terms.get(float(n), 0j) - (2j) ** n)
                    for n in range(13))
        _check(failures, worst <= 1e-12,
               f"{name} cauchy doubling: worst {worst:.3e}")
    s2 = free_convolve(semicircle_moments(8.0), semicircle_moments(8.0))
    _check(failures, abs(s2.terms[2.0] - 2.0) <= 1e-12
           and abs(s2.terms[4.0] - 8.0) <= 1e-12,
           "free semicircle sum m2/m4 wrong")
    b2 = boolean_convolve(bernoulli_moments(12.0), bernoulli_moments(12.0))
    worst = max(abs(b2.terms[float(2 * n)] - 2.0 ** n) for n in range(1, 7))
    _check(failures, worst <= 1e-12, f"boolean bernoulli sum: worst {worst:.3e}")
    rng = np.random.default_rng(20260817)
    for trial in range(20):
        def mk():
            terms = {0.0: 1.0 + 0j}
            terms.update({0.5 * i: 0.5 * complex(rng.standard_normal(),
                                                 rng.standard_normal())
                          for i in range(1, 8)})
            return moment_series(HALF, terms, 3.5)
        a, b = mk(), mk()
        got = classical_convolve(a, b)
        brute = brute_series_product(a.series, b.series)
        worst = max(abs(got.series.terms[k] - brute.terms.get(k, 0j))
                    for k in got.series.terms)
        _check(failures, worst <= 1e-12,
               f"random classical pair {trial}: worst {worst:.3e}")
    _report("AC06 convolution identities and brute-force cross-check",
            failures)


def test_ac07_membership_dichotomy_via_growth_drift():
    failures = []
    alphas = (0.4, 0.7, 1.0, 1.3, 1.7, 2.0)

    def fitted_A(make, cutoff):
        return growth_fit(make(cutoff).series).A

    for alpha in alphas:
        b = symmetric_phase(alpha)
        mk = lambda c: classical_stable(StableParams(alpha=alpha, b=b),
                                        cutoff=c)[0]
        drift = abs(fitted_A(mk, 24.0) / fitted_A(mk, 12.0) - 1.0)
        if alpha <= 1.0:
            _check(failures, drift < 0.01,
                   f"classical alpha={alpha}: drift {drift:.4f} >= 1%")
        else:
            _check(failures, drift > 0.10,
                   f"classical alpha={alpha}: drift {drift:.4f} <= 10%")
    kinds = (
        ("free", lambda alpha, b: lambda c: free_stable(
            StableParams(alpha=alpha, b=b, kind=StableKind.FREE), cutoff=c)),
        ("boolean", lambda alpha, b: lambda c: boolean_stable(
            StableParams(alpha=alpha, b=b, kind=StableKind.BOOLEAN),
            cutoff=c)),
        ("monotone", lambda alpha, b: lambda c: monotone_stable(
            alpha, b, cutoff=c)),
    )
    for name, factory in kinds:
        for alpha in alphas:
            mk = factory(alpha, symmetric_phase(alpha))
            a12, a24, a48 = (fitted_A(mk, c) for c in (12.0, 24.0, 48.0))
            d1 = abs(a24 / a12 - 1.0)
            d2 = abs(a48 / a24 - 1.0)
            _check(failures, d2 <= d1 + 1e-15,
                   f"{name} alpha={alpha}: drift grew {d1:.2e} -> {d2:.2e}")
            _check(failures, d2 < 0.10,
                   f"{name} alpha={alpha}: drift {d2:.2e} not settling")
    _report("AC07 growth dichotomy: commutative unstable, "
            "non-commutative stable", failures)


def test_ac08_positive_half_stable_density_double_oracle():
    quad = pytest.importorskip("scipy.integrate").quad
    failures = []
    d = positive_stable_density(0.5)

    def phi(s):
        return cmath.exp(-cmath.sqrt(s) * cmath.exp(-0.25j * math.pi))

    def oracle_fourier(x):
        val, _ = quad(lambda s: (cmath.exp(-1j * s * x) * phi(s)).real,
                      0.0, 1200.0, limit=600)
        return val / math.pi

    def resolvent(zeta):
        re, _ = quad(lambda s: (1j * cmath.exp(-1j * s * zeta) * phi(s)).real,
                     0.0, 1200.0, limit=600)
        im, _ = quad(lambda s: (1j * cmath.exp(-1j * s * zeta) * phi(s)).imag,
                     0.0, 1200.0, limit=600)
        return complex(re, im)

    for x in (2.0, 4.0, 8.0):
        got = d.density(x)
        g1 = abs(got - oracle_fourier(x))
        g2 = abs(got - stieltjes_inversion(resolvent, x))
        _check(failures, g1 <= 1e-5, f"x={x}: fourier oracle gap {g1:.3e}")
        _check(failures, g2 <= 1e-5, f"x={x}: resolvent oracle gap {g2:.3e}")
    _report("AC08 positive 1/2-stable density against two oracles", failures)


def test_ac09_laplace_link_identity():
    failures = []
    laws = {
        "cauchy": cauchy_moments(20.0),
        "mixture": stable_mixture([1.0 / (n + 1) for n in range(30)], 0.7,
                                  cutoff=20.0)[0],
        "arcsine": monotone_stable(2.0, 2.0, cutoff=16.0),
    }
    for name, m in laws.items():
        c = density_constant(m.series.spec, 24.0)
        A = FourierEvaluator(m).growth.A
        link = laplace_link_check(m, 2.5 * c * A)
        _check(failures, link.discrepancy <= 1e-6,
               f"{name}: discrepancy {link.discrepancy:.3e}")
    _report("AC09 Laplace-transform link across representations", failures)


def test_ac10_monotone_square_law_is_arcsine():
    failures = []
    m = monotone_stable(2.0, 2.0, cutoff=12.0)
    for n, want in ((2.0, 1.0), (4.0, 1.5), (6.0, 2.5)):
        got = m.terms.get(n, 0j)
        _check(failures, abs(got - want) <= 1e-10,
               f"moment {n}: {got} != {want}")
    _report("AC10 monotone square law arcsine moments", failures)


def test_ac11_deformed_resolvent_vs_branch_safe_surd():
    failures = []
    for alpha, b, r in ((0.5, 1j, 2.0), (2.0, 1.0, 3.0)):
        g = mu_br(alpha, b, r, cutoff=20.0)
        for theta in np.linspace(-0.1, -2.9, 10):
            z = 9.0 * cmath.exp(1j * theta)
            w = b * z ** -alpha
            want = (r * (1.0 - (1.0 - w) ** (1.0 / r)) / w) ** (1.0 / alpha) / z
            gap = abs(evaluate(g, z).value - want)
            _check(failures, gap <= 1e-9,
                   f"alpha={alpha} r={r} theta={theta:.2f}: gap {gap:.3e}")
    _report("AC11 deformed resolvent family vs closed form", failures)


def test_ac12_diophantine_classification():
    failures = []
    golden = golden_ratio_certificate()
    prof = sin_growth_profile(golden, 10 ** 4)
    _check(failures, prof.running_max_log < 1.2,
           f"golden log profile {prof.running_max_log:.4f} >= 1.2")
    ev = classify(golden)
    _check(failures, ev.verdict is Verdict.NOT_IN_D_EVIDENCE,
           f"golden verdict {ev.verdict}")
    _check(failures, abs(ev.strongest_b - 1.7099759466766968) <= 1e-9,
           f"golden strongest_b {ev.strongest_b}")
    sup = classify(super_liouville_certificate())
    _check(failures, sup.verdict is Verdict.CERTIFIED_IN_D,
           f"super-liouville verdict {sup.verdict}")
    inv = classify(transform_certificate(golden, TransformOp.INVERT))
    _check(failures, inv.verdict is Verdict.NOT_IN_D_EVIDENCE,
           "inversion broke the golden verdict")
    scaled = classify(transform_certificate(super_liouville_certificate(),
                                            TransformOp.SCALE, 2))
    _check(failures, scaled.verdict is Verdict.CERTIFIED_IN_D,
           "scaling broke certified membership")
    _report("AC12 Diophantine membership classifier", failures)


def test_ac13_boundary_functional_series():
    failures = []
    got = supremum_coefficient(1.0 / math.sqrt(2.0), 0.5, 0, 1)
    _check(failures, abs(got - 0.25954395275825426) <= 1e-12,
           f"supremum corner coefficient {got!r}")
    got = last_passage_coefficient(1.5, 2, 0)
    _check(failures, abs(got - 0.36230812413103336) <= 1e-12,
           f"last-passage leading coefficient {got!r}")
    lo = supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6,
                                               M=12, N=12))
    hi = supremum_density(SupremumSeriesParams(alpha=0.43, rho=0.6,
                                               M=24, N=24))
    x = 5.0 * lo.x_min
    gap = abs(lo.density(x) - hi.density(x))
    _check(failures, gap <= 1e-8, f"supremum doubling gap {gap:.3e}")
    lp_lo = last_passage_density(LastPassageParams(alpha=1.5, d=2, M=10))
    lp_hi = last_passage_density(LastPassageParams(alpha=1.5, d=2, M=20))
    gap = abs(lp_lo.density(3.0) - lp_hi.density(3.0))
    _check(failures, gap <= 1e-8, f"last-passage doubling gap {gap:.3e}")
    _report("AC13 supremum and last-passage series", failures)


def test_ac14_cli_runs_are_deterministic():
    failures = []
    env = {k: v for k, v in os.environ.items() if k != "GPS_CUTOFF"}
    commands = [
        ("expand", "--law", "classical-stable", "--alpha", "0.7",
         "--b", "0.45399049973954675+0.8910065241883678j",
         "--repr", "fourier", "--cutoff", "10"),
        ("density", "--law", "positive-stable", "--alpha", "0.5",
         "--x-min", "2", "--x-max", "8", "--points", "5"),
        ("convolve", "--kind", "free", "--law-a", "semicircle",
         "--law-b", "semicircle", "--cutoff", "8"),
        ("classify", "--golden"),
        ("verify", "--law", "pareto", "--beta", "2"),
    ]
    for cmd in commands:
        runs = [subprocess.run([sys.executable, "-m", "powertail.cli", *cmd],
                               capture_output=True, env=env)
                for _ in range(2)]
        _check(failures, runs[0].returncode == runs[1].returncode == 0,
               f"{cmd[0]}: exit codes {[r.returncode for r in runs]}")
        _check(failures, runs[0].stdout == runs[1].stdout,
               f"{cmd[0]}: stdout differs between runs")
    _report("AC14 deterministic command line output", failures)
