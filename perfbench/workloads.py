"""The three workloads: op lists built from a seed, op execution, checks.

Op lists are plain data made with ``random.Random`` seeded from a string,
so the same seed gives the same list on every machine and Python build.
They are generated round by round, and each round holds a fixed mix of
op templates, so every run, whatever its seed, does the same kinds of
work in the same proportions and only the parameters differ.
Generating the lists needs no powertail import.

Executing an op calls powertail through its module attributes
(``stable.classical_stable``, not a name bound at import time), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

# the closure tolerance of `powertail verify` self-similarity
CLOSURE_TOL = 1e-8
# tolerances of the matching `powertail verify` checks
FOURIER_QUAD_TOL = 1e-7   # cauchy: fourier-vs-quadrature (absolute)
LAPLACE_TOL = 1e-6        # classical-stable: laplace-link (absolute)
INVERSION_TOL = 1e-5      # positive-stable: density-vs-inversion (relative)
PARETO_TOL = 1e-8         # pareto: expansion-vs-quadrature (relative)
CLI_OP_TIMEOUT_S = 60.0


class Outcome(NamedTuple):
    """Result of one checked op.

    ``digits`` is -log10 of the scaled discrepancy the check compared
    with its tolerance, clamped to [0, 16]; None for checks that are
    categorical (a verdict, an exit code, a byte comparison).
    ``known_defect`` marks ops drawn from a template that exercises a
    defect present at the seed commit.
    """

    passed: bool
    digits: float | None
    known_defect: bool
    note: str = ""


def digits_of(discrepancy: float) -> float:
    if discrepancy != discrepancy:  # NaN
        return 0.0
    if discrepancy <= 0.0:
        return 16.0
    return min(16.0, max(0.0, -math.log10(discrepancy)))


def closure_discrepancy(doubled: dict, expected: dict) -> float:
    """Worst |c - e| / max(1, |e|) over the union of exponents; the
    same measure `powertail verify` uses for self-similarity."""
    worst = 0.0
    for gamma in set(doubled) | set(expected):
        c, e = doubled.get(gamma, 0j), expected.get(gamma, 0j)
        worst = max(worst, abs(c - e) / max(1.0, abs(e)))
    return worst


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join([workload, str(seed)] + [str(p) for p in parts]))


def _generic_alpha(lo: float, hi: float, u: float) -> float:
    """A 4-decimal alpha in [lo, hi] with denominator 10**4 in lowest
    terms, so no two exponents of its grid merge below any cutoff used."""
    p = int(round((lo + (hi - lo) * u) * 10_000))
    while not (p % 2 and p % 5):
        p += 1
    return p / 10_000


def _radical_inverse(v: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while v:
        v, digit = divmod(v, base)
        inv += digit * scale
        scale /= base
    return inv


def _spread_u(visit: int, base: int, shift: float) -> float:
    """Visit `visit` of a Halton sequence shifted by a seeded amount.

    Any run of consecutive visits covers [0, 1) nearly evenly, so the
    total cost of a template's ops in a run hardly depends on the seed.
    The shift stays below SEED_JITTER, and the first 52 visits of either
    base (26 rounds; a 30-second run does about 12) are at most 1 - 1/32,
    so none of them wraps round to the other end."""
    return (_radical_inverse(visit + 1, base) + shift) % 1.0


def _admissible_b(rng: random.Random, alpha: float) -> complex:
    """A weight strictly inside the admissible phase window."""
    if alpha <= 1.0:
        lo, hi = (1.0 - alpha) * math.pi, math.pi
    else:
        lo, hi = 0.0, (2.0 - alpha) * math.pi
    theta = lo + (hi - lo) * (0.15 + 0.7 * rng.random())
    return (0.6 + 0.4 * rng.random()) * cmath.exp(1j * theta)


# -- laws-deep -----------------------------------------------------------------

_LOW_Q = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5),
          Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
_HIGH_Q = (Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(5, 3),
           Fraction(7, 4))
_MONO_Q = (Fraction(7, 8), Fraction(9, 10), Fraction(5, 4), Fraction(4, 3),
           Fraction(3, 2), Fraction(5, 3), Fraction(7, 4))

# (kind, alpha set or generic interval, cutoff range).  Ranges keep a
# single op well under two seconds at the seed commit: generic alphas
# grow the grid like cutoff^2 / (2 alpha) and free laws pay for five
# reversions, so small generic alphas get small cutoffs.
_LAWS_REGULAR = (
    ("classical", _LOW_Q, (16, 32)),
    ("classical", _HIGH_Q, (16, 32)),
    ("classical", (0.35, 0.65), (16, 24)),
    ("classical", (0.65, 1.95), (20, 32)),
    ("boolean", _LOW_Q, (16, 32)),
    ("boolean", _HIGH_Q, (16, 32)),
    ("boolean", (0.40, 0.90), (16, 24)),
    ("boolean", (0.90, 1.95), (20, 32)),
    ("monotone", _MONO_Q, (16, 32)),
    ("monotone", (0.85, 1.95), (16, 32)),
    ("free", _HIGH_Q, (16, 32)),
    ("free", (1.20, 1.95), (16, 20)),
)
# Known defects at the seed commit: free laws at alpha <= 0.7 and
# monotone laws at alpha <= 0.65 miss the closure tolerance once the
# cutoff reaches 24 (errors 1e-6 .. 1e1).  One such op per round, the
# two kinds alternating, keeps them under a tenth of all ops so the
# 10th-percentile accuracy still reads the passing majority.
_LAWS_DEFECT = (
    ("free", (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3)), (24, 24)),
    ("monotone", (0.50, 0.60), (24, 24)),
)


# How far the seed shifts a template's Halton points for alpha and the
# cutoff, as a share of their ranges.  An op's cost grows like
# cutoff^2 / alpha, so the slowest ops of a run are those nearest the
# small-alpha, high-cutoff corner; a full-range shift changes how near
# they come from seed to seed, and with it op_tail_ms.  A small shift
# keeps nearly the same points in every run while the seed still moves
# every alpha, every weight b and the order of the rational alphas.
SEED_JITTER = 1 / 32


def _law_op(rng, template_id, template, visit, shifts, known):
    kind, alphas, (c_lo, c_hi) = template
    u_alpha = _spread_u(visit, 2, shifts[0])
    u_cut = _spread_u(visit, 3, shifts[1])
    if isinstance(alphas[0], Fraction):
        # cycle through the set from a seeded start: every len(alphas)
        # visits use each rational once
        frac = alphas[(visit + int(shifts[2] * len(alphas))) % len(alphas)]
        alpha, label = float(frac), "%d/%d" % (frac.numerator, frac.denominator)
    else:
        alpha = _generic_alpha(alphas[0], alphas[1], u_alpha)
        label = "%.4f" % alpha
    cutoff = c_lo + int(u_cut * (c_hi - c_lo + 1))
    b = _admissible_b(rng, alpha)
    return {"template": template_id, "kind": kind, "alpha": alpha,
            "alpha_label": label, "cutoff": cutoff, "b": [b.real, b.imag],
            "known_defect": known}


class LawsDeep:
    """Build a stable law, convolve it with itself, check closure."""

    name = "laws-deep"
    trace_rounds = 2
    imports = "powertail"

    def __init__(self, seed: int, workdir: str | None = None):
        self.seed = seed
        shifts = _rng(self.name, seed, "shifts")
        n = len(_LAWS_REGULAR) + len(_LAWS_DEFECT)
        self._shifts = [(SEED_JITTER * shifts.random(), SEED_JITTER * shifts.random(),
                         shifts.random()) for _ in range(n)]

    def round_ops(self, r: int) -> list[dict]:
        """Every regular template twice, then one known-defect op.  The
        order is fixed, so where a timed run stops inside a round does
        not depend on the seed."""
        rng = _rng(self.name, self.seed, r)
        ops = []
        for visit in (2 * r, 2 * r + 1):
            for t, tpl in enumerate(_LAWS_REGULAR):
                ops.append(_law_op(rng, t, tpl, visit, self._shifts[t], False))
        d = r % len(_LAWS_DEFECT)
        t = len(_LAWS_REGULAR) + d
        ops.append(_law_op(rng, t, _LAWS_DEFECT[d], r // len(_LAWS_DEFECT),
                           self._shifts[t], True))
        return ops

    # -- execution (needs powertail) --

    def setup(self) -> None:
        import powertail
        self.pt = powertail
        self._caches = (powertail.semigroup.exponent_grid,
                        powertail.semigroup.density_constant)
        # load every code path once on a tiny law, then start cold
        for kind in ("classical", "free", "boolean", "monotone"):
            self._closure(kind, 1.5, 0.5 + 0.2j, 4)
        self._clear()

    def _clear(self) -> None:
        for cached in self._caches:
            cached.cache_clear()

    def _build(self, kind: str, alpha: float, b: complex, cutoff: float):
        st = self.pt.stable
        if kind == "classical":
            return st.classical_stable(st.StableParams(alpha, b), cutoff)[0]
        if kind == "free":
            return st.free_stable(st.StableParams(alpha, b, kind=st.StableKind.FREE), cutoff)
        if kind == "boolean":
            return st.boolean_stable(
                st.StableParams(alpha, b, kind=st.StableKind.BOOLEAN), cutoff)
        return st.monotone_stable(alpha, b, cutoff)

    def _closure(self, kind: str, alpha: float, b: complex, cutoff: float) -> float:
        m = self._build(kind, alpha, b, cutoff)
        doubled = getattr(self.pt.transforms, kind + "_convolve")(m, m)
        m2 = self._build(kind, alpha, 2.0 * b, cutoff)
        return closure_discrepancy(doubled.terms, m2.terms)

    def run_op(self, op: dict) -> Outcome:
        # every op starts from cold grid caches, as a fresh process would
        self._clear()
        known = op["known_defect"]
        try:
            worst = self._closure(op["kind"], op["alpha"], complex(*op["b"]),
                                  float(op["cutoff"]))
        except Exception as exc:  # a raised error is a failed op, not a crash
            return Outcome(False, 0.0, known, type(exc).__name__)
        return Outcome(worst <= CLOSURE_TOL, digits_of(worst), known)


# -- eval-sweep ------------------------------------------------------------------

_EVAL_ALPHAS = (0.5, 0.6, 0.75)
_EVAL_BETAS = (0.5, 1.5, 2.0, 2.5)
_EVAL_CUTOFF = 20.0
# per round; the read-path templates dominate, the Diophantine ones ride along
_EVAL_MIX = ("fourier", "fourier", "cauchy", "stieltjes", "stieltjes",
             "density", "density", "pareto", "pareto", "classify", "profile")
_CERTS = (
    ("golden", "NOT_IN_D_EVIDENCE"),
    ("quadratic", "NOT_IN_D_EVIDENCE"),
    ("rational", "RATIONAL"),
    ("super-liouville", "CERTIFIED_IN_D"),
    ("invert-golden", "NOT_IN_D_EVIDENCE"),
)
_QUADRATICS = ((0, 2, 1), (1, 3, 2), (2, 7, 3), (-1, 5, 2))


class EvalSweep:
    """Evaluate laws built from a small fixed alpha set on warm grids,
    and check one value per op against an independent oracle."""

    name = "eval-sweep"
    trace_rounds = 40
    imports = "powertail"

    def __init__(self, seed: int, workdir: str | None = None):
        self.seed = seed

    def round_ops(self, r: int) -> list[dict]:
        rng = _rng(self.name, self.seed, r)
        ops = []
        for t in _EVAL_MIX:
            op = {"template": t, "known_defect": False,
                  "points": rng.randint(20, 200), "u": rng.random()}
            if t in ("fourier", "stieltjes", "density"):
                op["alpha"] = rng.choice(_EVAL_ALPHAS)
            if t == "fourier":
                b = _admissible_b(rng, op["alpha"])
                op["b"] = [b.real, b.imag]
            elif t == "pareto":
                op["beta"] = rng.choice(_EVAL_BETAS)
                op["R"] = round(0.5 + 1.5 * rng.random(), 6)
            elif t == "classify":
                op["cert"], op["expect"] = rng.choice(_CERTS)
                op["pq"] = [rng.randint(1, 400), rng.randint(2, 400)]
                op["quadratic"] = list(rng.choice(_QUADRATICS))
            elif t == "profile":
                op["quadratic"] = list(rng.choice(_QUADRATICS))
                op["N"] = rng.randint(500, 3000)
            ops.append(op)
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        import warnings
        import powertail
        self.pt = powertail
        warnings.simplefilter("ignore")
        # one untimed pass over every law so grids and constants are warm
        base = {"known_defect": False, "points": 2, "u": 0.5}
        for alpha in _EVAL_ALPHAS:
            for t in ("fourier", "stieltjes", "density"):
                self.run_op(dict(base, template=t, alpha=alpha, b=[0.0, 1.0]))
        for beta in _EVAL_BETAS:
            self.run_op(dict(base, template="pareto", beta=beta, R=1.0))
        self.run_op(dict(base, template="cauchy"))
        self.run_op(dict(base, template="classify", cert="golden",
                         expect="NOT_IN_D_EVIDENCE"))
        self.run_op(dict(base, template="profile", quadratic=[-1, 5, 2], N=10))

    def _positive_stable(self, alpha: float):
        st = self.pt.stable
        b = cmath.exp(1j * math.pi * (1.0 - alpha))
        return st.classical_stable(st.StableParams(alpha, b), _EVAL_CUTOFF)[0]

    def _certificate(self, op: dict):
        dio = self.pt.diophantine
        kind = op["cert"]
        if kind == "golden":
            return dio.golden_ratio_certificate()
        if kind == "quadratic":
            return dio.QuadraticCertificate(*op["quadratic"])
        if kind == "rational":
            return dio.RationalCertificate(Fraction(*op["pq"]))
        if kind == "super-liouville":
            return dio.super_liouville_certificate()
        return dio.transform_certificate(dio.golden_ratio_certificate(),
                                         dio.TransformOp.INVERT)

    def run_op(self, op: dict) -> Outcome:
        try:
            return self._run(op)
        except Exception as exc:  # a raised error is a failed op, not a crash
            return Outcome(False, 0.0 if op["template"] not in ("classify", "profile")
                           else None, False, type(exc).__name__)

    def _run(self, op: dict) -> Outcome:
        pt = self.pt
        t, k, u = op["template"], op["points"], op["u"]
        if t == "fourier":
            st = pt.stable
            m = st.classical_stable(st.StableParams(op["alpha"], complex(*op["b"])),
                                    _EVAL_CUTOFF)[0]
            fe = pt.transforms.FourierEvaluator(m)
            for i in range(k):
                fe(0.02 + 2.0 * (i + u) / k)
            A = fe.growth.A
            c = pt.semigroup.density_constant(m.spec, int(math.ceil(_EVAL_CUTOFF)))
            y = 2.5 * max(c * A, 0.4) * (1.0 + u)
            d = pt.oracles.laplace_link_check(m, y).discrepancy
            return Outcome(d <= LAPLACE_TOL, digits_of(d), False)
        if t == "cauchy":
            st = pt.stable
            m = st.classical_stable(st.StableParams(1.0, 1j), _EVAL_CUTOFF)[0]
            fe = pt.transforms.FourierEvaluator(m)
            zs = [0.05 + 3.0 * (i + u) / k for i in range(k)]
            vals = [complex(fe(z)) for z in zs]
            j = int(u * k)
            dens = pt.oracles.IntegrableDensity(
                fn=_cauchy_density, envelope_scale=1.0 / math.pi,
                envelope_exponent=1.0, envelope_start=1.0)
            d = abs(vals[j] - pt.oracles.quadrature_fourier(dens, zs[j]).value)
            return Outcome(d <= FOURIER_QUAD_TOL, digits_of(d), False)
        if t in ("stieltjes", "density"):
            alpha = op["alpha"]
            den = pt.stable.positive_stable_density(alpha, _EVAL_CUTOFF)
            x0 = max(4.0, 1.5 * den.x_min)
            m = self._positive_stable(alpha)
            S = pt.transforms.stieltjes_from_moments(m)
            if t == "stieltjes":
                for i in range(k):
                    pt.series.evaluate(S, complex(x0 + 10.0 * (i + u) / k, -0.5))
            else:
                for i in range(k):
                    den.density(x0 + 10.0 * (i + u) / k)
            x = x0 * (1.0 + u)
            inv = pt.oracles.stieltjes_inversion(
                lambda zz: complex(pt.series.evaluate(S, zz)), x)
            ref = den.density(x)
            d = abs(inv - ref) / max(abs(ref), 1e-300)
            return Outcome(d <= INVERSION_TOL, digits_of(d), False)
        if t == "pareto":
            R = op["R"]
            exp = pt.pareto.pareto_fourier(op["beta"], R, _EVAL_CUTOFF)
            zs = [(0.05 + 0.25 * (i + u) / k) / R for i in range(k)]
            vals = [exp.evaluate(z) for z in zs]
            j = int(u * k)
            ref = pt.oracles.rotated_pareto_transform(exp.beta, R, zs[j]).value
            d = abs(vals[j] - ref) / max(abs(ref), 1e-300)
            return Outcome(d <= PARETO_TOL, digits_of(d), False)
        dio = pt.diophantine
        if t == "classify":
            ev = dio.classify(self._certificate(op))
            ok = ev.verdict.value == op["expect"]
            return Outcome(ok, None, False, "" if ok else ev.verdict.value)
        prof = dio.sin_growth_profile(dio.QuadraticCertificate(*op["quadratic"]), op["N"])
        # quadratic irrationals are badly approximable: 1/|sin(pi beta n)|
        # grows at most linearly in n, so the log-scale rate stays near 1
        ok = math.isfinite(prof.running_max_log) and prof.running_max_log < 2.0
        return Outcome(ok, None, False)


def _cauchy_density(x: float) -> float:
    return (1.0 / math.pi) / (1.0 + x * x)


# -- cli-mix -----------------------------------------------------------------------

# the known verify failure at the seed commit: self-similarity 1.0e-6 > 1e-8
CLI_DEFECT_ARGV = ("verify", "--law", "free-stable", "--alpha", "0.7", "--b", "0.5+0.8j")


def _cli_pool(rng: random.Random) -> list[tuple[list[str], bool]]:
    """One argv per template; every template exits 0 at the seed commit
    except the known defect."""
    a = rng.choice(("0.5", "0.6", "0.75", "1.5"))
    pool = [
        ["expand", "--law", "classical-stable", "--alpha", a,
         "--b=" + (rng.choice(("1j", "-1", "-0.5+0.8j")) if float(a) < 1 else "1"),
         "--repr", rng.choice(("moments", "fourier", "stieltjes"))],
        ["expand", "--law", rng.choice(("boolean-stable", "monotone-stable")),
         "--alpha", rng.choice(("1.25", "1.5", "1.75")), "--b=0.5",
         "--repr", rng.choice(("moments", "F"))],
        ["expand", "--law", "pareto", "--beta", rng.choice(("0.5", "1.5", "2", "2.5")),
         "--repr", "fourier"],
        ["density", "--law", "positive-stable", "--alpha",
         rng.choice(("0.4", "0.5", "0.6", "0.75")), "--x-min", "4", "--x-max",
         str(rng.randint(8, 20)), "--points", str(rng.randint(20, 200))],
        ["density", "--law", "last-passage", "--alpha", rng.choice(("1.5", "2.5")),
         "--d", "3", "--x-min", "4", "--x-max", str(rng.randint(8, 20)),
         "--points", str(rng.randint(20, 200))],
        ["convolve", "--kind", rng.choice(("classical", "boolean", "monotone", "free")),
         "--in-a", "{in_a}", "--in-b", "{in_b}"],
        rng.choice((["classify", "--golden", "--profile", str(rng.randint(500, 3000))],
                    ["classify", "--rational", "%d/%d" % (rng.randint(1, 99),
                                                          rng.randint(2, 99)),
                     "--transform", "invert"],
                    ["classify", "--super-liouville"])),
        rng.choice((["verify", "--law", "cauchy"],
                    ["verify", "--law", "pareto", "--beta", rng.choice(("0.5", "1.5", "2"))],
                    ["verify", "--law", "positive-stable", "--alpha",
                     rng.choice(("0.5", "0.6", "0.75"))])),
        ["verify", "--law", rng.choice(("boolean-stable", "monotone-stable")),
         "--alpha", rng.choice(("0.7", "0.8", "1.5")), "--b=0.5+0.8j"],
    ]
    return [(argv, False) for argv in pool] + [(list(CLI_DEFECT_ARGV), True)]


def check_cli_output(argv: list[str], code: int, out: bytes, err: bytes,
                     reference: bytes | None) -> tuple[bool, float | None, str]:
    """Pass when the exit code is 0, stderr has no traceback, stdout
    parses (JSON, or CSV for density), a verify document reports no
    failed check, and the bytes equal those of an earlier run of the
    same argv.  Digits come from verify's numeric checks."""
    if b"Traceback (most recent call last)" in err:
        return False, None, "traceback"
    digits = None
    try:
        if argv[0] == "density":
            rows = list(csv.reader(io.StringIO(out.decode("ascii"))))
            if rows[0][:2] != ["x", "density_re"] or len(rows) < 2:
                return False, None, "bad csv"
            for row in rows[1:]:
                float(row[0]), float(row[1])
        else:
            doc = json.loads(out.decode("ascii"))
            if argv[0] == "verify":
                numeric = [c["discrepancy"] for c in doc["checks"]
                           if 0.0 < c["tolerance"] <= 1e-3]
                if numeric:
                    digits = digits_of(max(float(d) for d in numeric))
                if doc["failed"] != 0:
                    return False, digits, "verify failed"
    except (ValueError, KeyError, IndexError, UnicodeDecodeError):
        return False, None, "unparsable output"
    if code != 0:
        return False, digits, "exit %d" % code
    if reference is not None and out != reference:
        return False, digits, "bytes differ"
    return True, digits, ""


class CliMix:
    """Fresh `python -m powertail.cli` processes from a seeded argv pool;
    every round runs the whole pool, so from the second round on each
    output is compared byte for byte with the first."""

    name = "cli-mix"
    trace_rounds = 1
    imports = "powertail.cli"

    def __init__(self, seed: int, workdir: str | None = None):
        self.seed = seed
        self.workdir = workdir
        self._pool = _cli_pool(_rng(self.name, seed, "pool"))
        self._reference: dict[tuple, bytes] = {}
        # "module": python -m powertail.cli; "child": cli_child.py with its
        # tracer off; "traced-child": cli_child.py tracing and recording
        self.launcher = "module"
        self.child_records: list[dict] = []

    def round_ops(self, r: int) -> list[dict]:
        # the same order every round, so where a timed run stops inside
        # a round does not depend on the seed
        return [{"argv": argv, "known_defect": known} for argv, known in self._pool]

    def setup(self) -> None:
        import powertail.cli
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ)
        self.env.pop("GPS_CUTOFF", None)  # the argvs alone define the ops
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # the two convolve inputs, written by the library's own expand
        self.inputs = {}
        for key, law in (("in_a", "classical-stable"), ("in_b", "boolean-stable")):
            path = os.path.join(self.workdir, key + ".json")
            code = powertail.cli.main(["expand", "--law", law, "--alpha", "1.5",
                                       "--b", "0.5", "--cutoff", "12", "--out", path])
            if code != 0:
                raise RuntimeError("setup: expand of %s exited %d" % (law, code))
            self.inputs[key] = path

    def _argv(self, op: dict) -> list[str]:
        return [a.format(**self.inputs) for a in op["argv"]]

    def run_op(self, op: dict) -> Outcome:
        argv = self._argv(op)
        known = op["known_defect"]
        traced = self.launcher == "traced-child"
        if self.launcher == "module":
            cmd = [sys.executable, "-m", "powertail.cli"] + argv
        else:
            record = os.path.join(self.workdir, "child.json") if traced else "-"
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"),
                   record, repr(time.time()), "--"] + argv
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  timeout=CLI_OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(False, None, known, "timeout")
        if traced:
            try:
                with open(record, encoding="ascii") as fh:
                    self.child_records.append(json.load(fh))
                os.remove(record)
            except (OSError, ValueError):
                return Outcome(False, None, known, "no trace record")
        key = tuple(argv)
        ok, digits, note = check_cli_output(argv, proc.returncode, proc.stdout,
                                            proc.stderr, self._reference.get(key))
        self._reference.setdefault(key, proc.stdout)
        return Outcome(ok, digits, known, note)


WORKLOADS = {w.name: w for w in (LawsDeep, EvalSweep, CliMix)}
