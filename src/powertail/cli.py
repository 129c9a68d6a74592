"""Command-line surface.

Five subcommands: expand (build a law, emit one representation),
density (tabulate a density series as CSV), convolve (combine two
expanded series files), classify (Diophantine evidence for a real
number certificate), verify (series vs independent oracles).  Each law
is declared once, in LAWS; a subcommand offers the laws whose entry
has the builder it needs.

Output discipline: a single canonical JSON object per run (CSV only
for density tables), floats always %.17g, every default echoed in the
config block, no timestamps, no randomness.  Identical invocations
must produce identical bytes.

Exit codes: 0 success, 2 validation error, 3 verification failure,
4 numeric guard violation.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator

from .errors import (
    CertificateError,
    DomainBranchError,
    IncompatibleSeriesError,
    InvalidArgumentError,
    InvalidFormError,
    InvalidModelError,
    LogTermObstructionError,
    NonConvergentReversionError,
    NormalizationError,
    NotInvertibleError,
    OutsideValidityRegionError,
    PowertailError,
    ResonanceError,
    ResourceGuardError,
    TruncationWarning,
    UnsupportedSemigroupError,
)


def _lazy(name: str):
    """The module powertail.<name>, executed on its first attribute read
    (the standard library's ``LazyLoader``), so that each subcommand
    imports only the modules its law reads; one already imported is
    returned as it is."""
    name = "%s.%s" % (__package__, name)
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dio, oracles, pareto, semigroup, series, stable, transforms = map(_lazy, (
    "diophantine", "oracles", "pareto", "semigroup", "series", "stable", "transforms"))

FORMAT_VERSION = "powertail/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY_FAIL = 3
EXIT_NUMERIC_GUARD = 4

# hard cap on the rows of one density table
MAX_DENSITY_POINTS = 100_000

_VALIDATION_ERRORS = (
    InvalidArgumentError,
    IncompatibleSeriesError,
    InvalidFormError,
    InvalidModelError,
    NormalizationError,
    NotInvertibleError,
    CertificateError,
    UnsupportedSemigroupError,
    LogTermObstructionError,
)
_GUARD_ERRORS = (
    NonConvergentReversionError,
    ResourceGuardError,
    OutsideValidityRegionError,
    DomainBranchError,
    ResonanceError,
)


# -- canonical serialization ----------------------------------------------


def _fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        # JSON has no infinities; only bound columns can produce them
        return '"%s"' % repr(x)
    return "%.17g" % x


def _canon(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        inner = ",".join("%s:%s" % (json.dumps(str(k)), _canon(v))
                         for k, v in obj.items())
        return "{%s}" % inner
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(_canon(v) for v in obj)
    raise InvalidArgumentError("unserializable value of type %s" % type(obj).__name__)


def _emit(text: str, out_path: str | None) -> None:
    """Write text and a final newline to out_path, or to stdout."""
    text += "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(cell) -> str:
    if isinstance(cell, float):
        return "%.17g" % cell if math.isfinite(cell) else repr(cell)
    return str(cell)


# -- shared helpers --------------------------------------------------------


def _cutoff(flag: float | None) -> tuple[float, str]:
    """The cutoff and its source: --cutoff, else GPS_CUTOFF, else the
    default.  Whichever it is must be a positive finite real."""
    env = os.environ.get("GPS_CUTOFF")
    if flag is not None:
        value, source = flag, "flag"
    elif env is None:
        return series.DEFAULT_CUTOFF, "default"
    else:
        try:
            value, source = float(env), "env:GPS_CUTOFF"
        except ValueError:
            raise InvalidArgumentError("GPS_CUTOFF must be a number, got %r" % env)
    if not 0.0 < value < math.inf:
        raise InvalidArgumentError("cutoff must be a positive real")
    return value, source


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise InvalidArgumentError("cannot parse %r as a complex number" % text)


def _series_body(representation: str, monomial: str, f, cutoff: float) -> dict:
    """The document fields of a series: what it represents, its monomial,
    its generators, and one record per term with the term's counts."""
    grid = semigroup.exponent_grid(f.spec, cutoff)
    keys = sorted(f.terms)
    records = []
    for key, idx in zip(keys, grid.indices_of(keys).tolist()):
        c = complex(f.terms[key])
        records.append({
            "index": list(grid.reps[idx]) if idx >= 0 else [],
            "exponent": float(key),
            "re": c.real,
            "im": c.imag,
        })
    return {"representation": representation, "monomial": monomial,
            "generators": list(f.spec.fractional_generators), "records": records}


_NU_CHOICES = ("uniform", "delta1")


def _nu_moments(name: str) -> Iterator[float]:
    """m_n(nu) for n = 0, 1, ...; stable_mixture reads as many as its cutoff needs."""
    if name == "uniform":
        return (1.0 / (n + 1) for n in itertools.count())
    return itertools.repeat(1.0)


def _classical(params: "stable.StableParams", cutoff: float):
    m, diag = stable.classical_stable(params, cutoff=cutoff)
    return m, {"membership": asdict(diag)}


def _positive_stable(args, cutoff: float):
    b = cmath.exp(1j * math.pi * (1.0 - args.alpha))
    return _classical(stable.StableParams(alpha=args.alpha, b=b), cutoff)


def _free(alpha: float, b: complex, cutoff: float):
    params = stable.StableParams(alpha=alpha, b=b, kind=stable.StableKind.FREE)
    return stable.free_stable(params, cutoff=cutoff), {}


def _boolean(alpha: float, b: complex, cutoff: float):
    params = stable.StableParams(alpha=alpha, b=b, kind=stable.StableKind.BOOLEAN)
    return stable.boolean_stable(params, cutoff=cutoff), {}


def _monotone(alpha: float, b: complex, cutoff: float):
    return stable.monotone_stable(alpha, b, cutoff=cutoff), {}


def _stable_mixture(args, cutoff: float):
    m, model = stable.stable_mixture(_nu_moments(args.nu), args.alpha, cutoff=cutoff)
    return m, {"tail_model": {
        "r": model.r, "R": model.R, "guard_radius": model.guard_radius}}


def _law(args) -> "Law":
    """The table entry of args.law, once its required flags are checked."""
    law = LAWS[args.law]
    for name in law.params:
        _require_param(args, name)
    return law


def _moments(args, cutoff: float):
    """(MomentSeries, extra body fields) of a law with a moment form."""
    return _law(args).moments(args, cutoff)


def _param(args, name: str):
    """args.<name>, or the law's default for it when the flag is absent."""
    value = getattr(args, name)
    return LAWS[args.law].defaults[name] if value is None else value


def _with(args, **changes) -> argparse.Namespace:
    return argparse.Namespace(**{**vars(args), **changes})


def _require_param(args, name: str) -> None:
    if getattr(args, name, None) is None:
        raise InvalidArgumentError("--%s is required for law %r"
                                   % (name.replace("_", "-"), args.law))


def _stable_params(args) -> "stable.StableParams":
    if args.c is not None or args.beta_hat is not None:
        if args.c is None or args.beta_hat is None:
            raise InvalidArgumentError("--c and --beta-hat must be given together")
        b = stable.scale_skew_to_b(args.alpha, args.c, args.beta_hat)
        return stable.StableParams(alpha=args.alpha, b=b,
                                   gamma_shift=args.gamma0)
    return stable.StableParams(alpha=args.alpha, b=_parse_complex(args.b),
                               gamma_shift=args.gamma0)


def _config_common(args) -> dict:
    return {"cutoff": args.cutoff, "cutoff_source": args.cutoff_source}


# -- expand ----------------------------------------------------------------

_REPRS = ("moments", "fourier", "stieltjes", "F", "voiculescu", "tail")
_MOMENTS_MONOMIAL = "coefficient m_gamma of z^(-gamma-1) in the resolvent"


def cmd_expand(args) -> int:
    cutoff = args.cutoff
    cfg = {"law": args.law, "repr": args.repr}
    cfg.update(_law_param_echo(args))
    cfg.update(_config_common(args))
    law = _law(args)
    if law.expand is not None:
        body = law.expand(args, cutoff)
    else:
        m, extras = law.moments(args, cutoff)
        body = _represent(m, args.repr, cutoff)
        body.update(extras)
    _emit(_canon(_document("expand", cfg, body)), args.out)
    return EXIT_OK


def _expand_mu_br(args, cutoff: float) -> dict:
    if args.repr != "stieltjes":
        raise InvalidArgumentError(
            "mu-br is defined through its resolvent; use --repr stieltjes")
    S = stable.mu_br(args.alpha, _parse_complex(args.b), args.r, cutoff=cutoff)
    return _series_body("stieltjes", "z^(-gamma-1)", S, cutoff)


def _expand_pareto(args, cutoff: float) -> dict:
    if args.repr != "fourier":
        raise InvalidArgumentError("pareto expands on the Fourier side only")
    exp = pareto.pareto_fourier(args.beta, args.R, cutoff=cutoff)
    return {
        **_series_body("fourier", "z^gamma", exp.regular, cutoff),
        "singular": {
            "floor_exponent": exp.singular.floor_exponent,
            "coef_floor": _cpx(exp.singular.coef_floor),
            "coef_floor_plus_one": _cpx(exp.singular.coef_floor_plus_one),
            "coef_beta": _cpx(exp.singular.coef_beta),
            "coef_log": _cpx(exp.singular.coef_log),
            "has_log_term": exp.singular.has_log_term,
        },
    }


def _cpx(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _represent(m: "transforms.MomentSeries", repr_name: str, cutoff: float) -> dict:
    if repr_name == "moments":
        return _series_body(repr_name, _MOMENTS_MONOMIAL, m, cutoff)
    if repr_name == "fourier":
        return _series_body(repr_name, "coefficient of z^gamma, phase folded in",
                            transforms.FourierEvaluator(m).series, cutoff)
    if repr_name == "stieltjes":
        return _series_body(repr_name, "z^(-gamma-1)",
                            transforms.stieltjes_from_moments(m), cutoff)
    if repr_name == "F":
        return _series_body(repr_name, "z^(1-gamma), reciprocal-resolvent form",
                            transforms.F_from_moments(m), cutoff)
    if repr_name == "voiculescu":
        return _series_body(repr_name, "z^(1-gamma), shift correction",
                            transforms.voiculescu_from_moments(m), cutoff)
    if repr_name == "tail":
        model = transforms.tail_from_moments(m)
        recs = []
        for beta in sorted(model.a):
            c = model.a[beta]
            recs.append({"exponent": float(beta), "re": c.real, "im": c.imag})
        inner = [{"n": n, "re": c.real, "im": c.imag}
                 for n, c in sorted(model.inner_moments.items())]
        return {
            "representation": "tail",
            "monomial": "a_beta |x|^(-beta-1) with the negative-side phase",
            "generators": list(m.spec.fractional_generators),
            "r": model.r, "R": model.R, "guard_radius": model.guard_radius,
            "records": recs, "inner_moments": inner,
        }
    raise InvalidArgumentError("unknown representation %r" % repr_name)


def _law_param_echo(args) -> dict:
    echo = {}
    for name in ("alpha", "b", "gamma0", "c", "beta_hat", "beta", "R", "r",
                 "rho", "M", "N", "d", "nu"):
        if hasattr(args, name) and getattr(args, name) is not None:
            echo[name] = getattr(args, name)
    return echo


def _document(command: str, config: dict, body: dict) -> dict:
    doc = {"format": FORMAT_VERSION, "command": command, "config": config}
    doc.update(body)
    return doc


# -- density ---------------------------------------------------------------


def _supremum_with_clamp(args, cutoff: float) -> "stable.PowerSumDensity":
    M, N = _param(args, "M"), _param(args, "N")
    while True:
        try:
            return stable.supremum_density(
                stable.SupremumSeriesParams(alpha=args.alpha, rho=args.rho, M=M, N=N))
        except ResonanceError:
            if M <= 0 and N <= 1:
                raise
            M = max(M // 2, 0)
            N = max(N // 2, 1)
            warnings.warn(
                "resonant sine denominator; truncation clamped to M=%d N=%d"
                % (M, N), TruncationWarning, stacklevel=2)


def _last_passage(args, cutoff: float) -> "stable.PowerSumDensity":
    return stable.last_passage_density(
        stable.LastPassageParams(alpha=args.alpha, d=args.d, M=_param(args, "M")))


def cmd_density(args) -> int:
    if args.points > MAX_DENSITY_POINTS:
        raise ResourceGuardError("%d density points exceed the limit of %d"
                                 % (args.points, MAX_DENSITY_POINTS))
    if args.points < 2 or not 0.0 < args.x_max - args.x_min < math.inf:
        raise InvalidArgumentError("need finite x_max > x_min and at least 2 points")
    cutoff = args.cutoff
    den = _law(args).density(args, cutoff)
    lines = ["x,density_re,density_im,remainder_bound,flag"]
    flagged = 0
    for i in range(args.points):
        x = args.x_min + (args.x_max - args.x_min) * i / (args.points - 1)
        try:
            val = complex(den.density(x))
            bound = float(den.remainder_estimate(x))
            row = [x, val.real, val.imag, bound, ""]
        except (OutsideValidityRegionError, InvalidArgumentError):
            flagged += 1
            row = [x, float("nan"), float("nan"), float("nan"), "outside_validity"]
        lines.append(",".join(_csv_cell(cell) for cell in row))
    _emit("\n".join(lines), args.out)
    if flagged:
        print("warning: %d of %d points outside the validity region"
              % (flagged, args.points), file=sys.stderr)
    return EXIT_OK


# -- convolve ---------------------------------------------------------------


_CONV_KINDS = ("classical", "free", "boolean", "monotone")


def _convolve(kind: str, ma, mb):
    """The convolution of one of _CONV_KINDS, read from transforms when it runs."""
    return getattr(transforms, kind + "_convolve")(ma, mb)


def _parse_json_file(path: str, parse, what: str):
    """Apply parse to the JSON document in path.  A document of the wrong
    shape (a missing key, a list where an object belongs, an unparsable
    field) is a validation error naming the file, not a traceback."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:  # JSONDecodeError, or a non-ASCII byte
        raise InvalidArgumentError("%s is not valid JSON: %s" % (path, exc))
    try:
        return parse(doc)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError("%s: %s" % (path, exc)) from None
    except PowertailError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError("%s: malformed %s (%s: %s)"
                                   % (path, what, type(exc).__name__, exc)) from None


def _finite_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise InvalidArgumentError("%s must be a finite number, got %r" % (what, value))
    return float(value)


def _moments_fields(doc: dict):
    if doc.get("format") != FORMAT_VERSION:
        raise InvalidArgumentError("unsupported format %r" % (doc.get("format"),))
    if doc.get("representation") != "moments":
        raise InvalidArgumentError("a %r series; convolve needs moments"
                                   % (doc.get("representation"),))
    gens = [_finite_number(g, "a generator") for g in doc.get("generators", [])]
    cutoff = _finite_number(doc["config"]["cutoff"], "the cutoff")
    terms = {}
    for r in doc["records"]:
        e = _finite_number(r["exponent"], "an exponent")
        terms[e] = complex(_finite_number(r["re"], "coefficient %g (re)" % e),
                           _finite_number(r["im"], "coefficient %g (im)" % e))
    return gens, cutoff, terms


def _moments_from_file(path: str) -> "transforms.MomentSeries":
    gens, cutoff, terms = _parse_json_file(path, _moments_fields, "moments file")
    spec = (semigroup.SemigroupSpec.with_alphas(*gens) if gens
            else semigroup.SemigroupSpec.natural())
    return transforms.moment_series(spec, terms, cutoff=cutoff)


def cmd_convolve(args) -> int:
    cutoff = args.cutoff
    if args.in_a and args.in_b:
        ma = _moments_from_file(args.in_a)
        mb = _moments_from_file(args.in_b)
        src = {"in_a": args.in_a, "in_b": args.in_b}
    elif args.law_a and args.law_b:
        ma, _ = _moments(_with(args, law=args.law_a), cutoff)
        mb, _ = _moments(_with(args, law=args.law_b), cutoff)
        src = {"law_a": args.law_a, "law_b": args.law_b}
    else:
        raise InvalidArgumentError(
            "give either --in-a/--in-b files or --law-a/--law-b names")
    out = _convolve(args.kind, ma, mb)
    cfg = {"kind": args.kind}
    cfg.update(src)
    cfg.update(_config_common(args))
    body = _series_body("moments", _MOMENTS_MONOMIAL, out, out.cutoff)
    _emit(_canon(_document("convolve", cfg, body)), args.out)
    return EXIT_OK


# -- classify ----------------------------------------------------------------


def _certificate_from_args(args) -> dio.RealCertificate:
    picked = [bool(args.cert), args.golden, args.rational is not None,
              args.float_value is not None, args.super_liouville]
    if sum(picked) != 1:
        raise InvalidArgumentError(
            "pick exactly one of --cert/--golden/--rational/--float/--super-liouville")
    if args.cert:
        return _certificate_from_file(args.cert)
    if args.golden:
        return dio.golden_ratio_certificate()
    if args.rational is not None:
        return dio.RationalCertificate(_fraction(args.rational, "--rational"))
    if args.float_value is not None:
        return dio.FloatCertificate(args.float_value)
    return dio.super_liouville_certificate()


def _certificate_from_file(path: str) -> dio.RealCertificate:
    return _parse_json_file(path, _certificate_from_dict, "certificate")


def _fraction(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidArgumentError("%s: cannot read %r as a rational p/q"
                                   % (what, value)) from None


def _transform_op(name) -> "dio.TransformOp":
    try:
        return dio.TransformOp(name)
    except ValueError:
        raise InvalidArgumentError(
            "unknown transform %r; use %s" % (
                name, ", ".join(op.value for op in dio.TransformOp))) from None


def _certificate_from_dict(doc: dict) -> dio.RealCertificate:
    kind = doc.get("kind")
    if kind == "rational":
        return dio.RationalCertificate(Fraction(int(doc["p"]), int(doc["q"])))
    if kind == "quadratic":
        return dio.QuadraticCertificate(int(doc["P"]), int(doc["D"]), int(doc["Q"]))
    if kind == "float":
        return dio.FloatCertificate(float(doc["value"]))
    if kind == "super-liouville":
        return dio.super_liouville_certificate()
    if kind == "transform":
        base = _certificate_from_dict(doc["of"])
        amount = doc.get("amount")
        if amount is not None:
            amount = _fraction(amount, "amount")
        return dio.transform_certificate(base, _transform_op(doc["op"]), amount)
    raise CertificateError("unknown certificate kind %r" % kind)


def _apply_transform_flags(cert, transform_specs):
    for item in transform_specs or []:
        if ":" in item:
            op_name, amount_text = item.split(":", 1)
            amount = _fraction(amount_text, "--transform " + op_name)
        else:
            op_name, amount = item, None
        cert = dio.transform_certificate(cert, _transform_op(op_name), amount)
    return cert


def cmd_classify(args) -> int:
    cert = _certificate_from_args(args)
    cert = _apply_transform_flags(cert, args.transform)
    params = dio.ClassifyParams(q_limit=args.q_limit)
    evidence = dio.classify(cert, params)
    body = {
        "certificate": cert.describe(),
        "verdict": evidence.verdict.value,
        "strongest_b": evidence.strongest_b,
        "tested_q_limit": evidence.tested_q_limit,
        "precision_limited": evidence.precision_limited,
        "notes": evidence.notes,
        "witnesses": [
            {"q": w.q, "log10_distance": w.log10_distance, "implied_b": w.implied_b}
            for w in evidence.witnesses
        ],
    }
    if args.profile is not None:
        prof = dio.sin_growth_profile(cert, args.profile)
        body["profile"] = {
            "N": args.profile,
            "running_max_linear": prof.running_max_linear,
            "running_max_log": prof.running_max_log,
        }
    cfg = {"q_limit": args.q_limit, "profile": args.profile or 0,
           "transform": list(args.transform or [])}
    _emit(_canon(_document("classify", cfg, body)), args.out)
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def _check(name: str, passed: bool, discrepancy: float, tolerance: float,
           note: str = "", flag: str = "") -> dict:
    status = "pass" if passed else "fail"
    if passed and flag:
        status = "pass-with-flag"
    return {"name": name, "status": status, "discrepancy": discrepancy,
            "tolerance": tolerance, "note": note, "flag": flag}


# heights below the axis for the inversion checks: four decades from 1e-2
# leave an extrapolation error near 1e-14, where the oracle's default three
# from 0.1 leave 1e-11 to 1e-8, so a check's discrepancy is the series' own
_INVERSION_HEIGHTS = (1e-2, 1e-3, 1e-4, 1e-5)


def _verify_cauchy(args, cutoff: float) -> list[dict]:
    m, _ = _moments(args, cutoff)
    checks = []
    fe = transforms.FourierEvaluator(m)
    density = oracles.IntegrableDensity(
        fn=lambda x: (1.0 / math.pi) / (1.0 + x * x),
        envelope_scale=1.0 / math.pi, envelope_exponent=1.0, envelope_start=1.0)
    z = 1.0
    series_val = complex(fe(z))
    quad_val = oracles.quadrature_fourier(density, z).value
    d = abs(series_val - quad_val)
    checks.append(_check("fourier-vs-quadrature", d <= 1e-7, d, 1e-7,
                         note="z = 1, closed form e^-1"))
    link = oracles.laplace_link_check(m, 3.0)
    checks.append(_check("laplace-link", link.discrepancy <= 1e-7,
                         link.discrepancy, 1e-7, note="y = 3"))
    S = transforms.stieltjes_from_moments(m)
    dens = oracles.stieltjes_inversion(
        lambda zz: complex(series.evaluate(S, zz)), 5.0, _INVERSION_HEIGHTS)
    d = abs(dens - 1.0 / (26.0 * math.pi))
    checks.append(_check("stieltjes-inversion", d <= 1e-7, d, 1e-7,
                         note="x = 5 vs 1/(26 pi)"))
    return checks


def _verify_delta0(args, cutoff: float) -> list[dict]:
    m, _ = _moments(args, cutoff)
    fe = transforms.FourierEvaluator(m)
    d = abs(complex(fe(1.0)) - 1.0)
    checks = [_check("unit-mass", d <= 1e-12, d, 1e-12)]
    link = oracles.laplace_link_check(m, 5.0)
    checks.append(_check("laplace-link", link.discrepancy <= 1e-9,
                         link.discrepancy, 1e-9, note="y = 5, both sides 1/5"))
    return checks


def _laplace_link_past_growth(m: "transforms.MomentSeries", cutoff: float) -> dict:
    """The Laplace link at y = 2.5 max(c A, 0.4), clear of the growth scale."""
    A = transforms.FourierEvaluator(m).growth.A
    c = semigroup.density_constant(m.spec, int(math.ceil(cutoff)))
    y = 2.5 * max(c * A, 0.4)
    link = oracles.laplace_link_check(m, y)
    return _check("laplace-link", link.discrepancy <= 1e-6, link.discrepancy,
                  1e-6, note="y = %.17g" % y)


def _verify_classical_stable(args, cutoff: float) -> list[dict]:
    m, extras = _moments(args, cutoff)
    diag = extras["membership"]
    if args.alpha <= 1.0:
        return [_check(
            "membership-dichotomy", diag["cutoff_stable"], diag["relative_increase"],
            0.05, note="alpha <= 1: coefficient growth must stabilize under "
                       "cutoff doubling"),
            _laplace_link_past_growth(m, cutoff)]
    unstable = not diag["cutoff_stable"]
    return [_check(
        "membership-dichotomy", unstable, diag["relative_increase"], 0.05,
        note="alpha > 1: growth must NOT stabilize (law outside the "
             "expandable class)",
        flag="growth-instability-expected" if unstable else "")]


def _verify_pareto(args, cutoff: float) -> list[dict]:
    exp = pareto.pareto_fourier(args.beta, args.R, cutoff=cutoff)
    checks = []
    for z in (0.05, 0.3):
        series_val = exp.evaluate(z)
        oracle = oracles.rotated_pareto_transform(exp.beta, args.R, z)
        rel = abs(series_val - oracle.value) / max(abs(oracle.value), 1e-300)
        checks.append(_check("expansion-vs-quadrature-z%g" % z,
                             rel <= 1e-8, rel, 1e-8, note="relative error"))
    has_log = exp.singular.has_log_term
    is_int = float(exp.beta).is_integer()
    checks.append(_check(
        "log-term-detection", has_log == is_int,
        0.0 if has_log == is_int else 1.0, 0.0,
        note=("log term present: the one-sided tail is not expandable in "
              "pure powers" if has_log else "no log obstruction"),
        flag="log-term-present" if has_log else ""))
    return checks


def _verify_self_similarity(kind: str, args, cutoff: float) -> list[dict]:
    m, _ = _moments(args, cutoff)
    doubled = _convolve(kind, m, m)
    # repr round-trips a complex exactly, so the law is rebuilt at 2b itself
    m2, _ = _moments(_with(args, b=repr(2.0 * _parse_complex(args.b))), cutoff)
    worst = 0.0
    for gamma in set(doubled.terms) | set(m2.terms):
        c, expect = doubled.terms.get(gamma, 0j), m2.terms.get(gamma, 0j)
        worst = max(worst, abs(c - expect) / max(1.0, abs(expect)))
    return [_check("self-similarity", worst <= 1e-8, worst, 1e-8,
                   note="own convolution equals the law with b doubled "
                        "(dilation by 2^(1/alpha))")]


def _verify_positive_stable(args, cutoff: float) -> list[dict]:
    law = LAWS[args.law]
    den = law.density(args, cutoff)
    m, _ = law.moments(args, cutoff)
    S = transforms.stieltjes_from_moments(m)
    x = max(4.0, 1.5 * den.x_min)
    inv = oracles.stieltjes_inversion(lambda zz: complex(series.evaluate(S, zz)), x,
                                      _INVERSION_HEIGHTS)
    series_val = complex(den.density(x)).real
    d = abs(inv - series_val) / max(abs(series_val), 1e-300)
    return [_check("density-vs-inversion", d <= 1e-5, d, 1e-5,
                   note="x = %.17g, relative" % x)]


def _verify_mixture(args, cutoff: float) -> list[dict]:
    m, _ = _moments(args, cutoff)
    return [_laplace_link_past_growth(m, cutoff)]


def _truncation_doubling(small, big, var: str, at: float) -> list[dict]:
    a = complex(small.density(at))
    bb = complex(big.density(at))
    gap = abs(a - bb) / max(abs(bb), 1e-300)
    return [_check("truncation-doubling", gap <= 1e-8, gap, 1e-8,
                   note="%s = %.17g, relative" % (var, at))]


def _verify_supremum(args, cutoff: float) -> list[dict]:
    # resonant alpha/rho raise here and surface as a numeric-guard exit:
    # a truncation-doubling check is meaningless at clamped orders
    M, N = _param(args, "M"), _param(args, "N")
    small, big = (stable.supremum_density(stable.SupremumSeriesParams(
        alpha=args.alpha, rho=args.rho, M=k * M, N=k * N)) for k in (1, 2))
    return _truncation_doubling(small, big, "x", 5.0 * max(small.x_min, big.x_min))


def _verify_last_passage(args, cutoff: float) -> list[dict]:
    M = _param(args, "M")
    small, big = (_last_passage(_with(args, M=k), cutoff) for k in (M // 2, M))
    return _truncation_doubling(small, big, "t", 2.0 * max(small.x_min, big.x_min))


def _verify_mu_br(args, cutoff: float) -> list[dict]:
    alpha, b, r = args.alpha, _parse_complex(args.b), args.r
    S = stable.mu_br(alpha, b, r, cutoff=cutoff)
    d0 = S.terms.get(0.0)
    checks = [_check("unit-leading-coefficient", d0 == 1.0 + 0j,
                     abs((d0 or 0) - 1.0), 0.0,
                     note="resolvent must start at exactly 1/z")]
    # below the real axis at k times the larger of the guard radius and
    # |b|^(1/alpha), the series' true radius, with k^-e at most 1e-12 from the
    # exponent e of the last term on, so that what lies past the cutoff is
    # below the tolerance; |z| is taken in logs and kept in [1, e^700]
    R = series.divergence_guard_radius(S)
    e = max(max(S.terms), alpha)
    log_z = max(math.log(4.0), 12.0 * math.log(10.0) / e) + max(
        math.log(R) if R > 0 else -math.inf, math.log(abs(b)) / alpha)
    z = math.exp(min(max(log_z, 0.0), 700.0)) * cmath.exp(-0.25j * math.pi)
    w = b * z ** -alpha
    if abs(w) < 1e-15:  # the bracket is 1 + O(w), 1 to a few ulps (and u != 1 below)
        want = 1.0 / z
    else:  # log(1 - w) and 1 - (1 - w)^(1/r) = -2 e^(q/2) sinh(q/2), without cancellation
        u = 1.0 - w
        q = cmath.log(u) * w / (1.0 - u) / r
        want = (-2.0 * r * cmath.exp(q / 2) * cmath.sinh(q / 2) / w) ** (1.0 / alpha) / z
    res = series.evaluate(S, z)
    d, tol = abs(res.value - want), 1e-8 * abs(want) + res.tail_bound
    checks.append(_check("closed-form", d <= tol, d, tol,
                         note="series against (r (1 - (1 - w)^(1/r)) / w)^(1/alpha) / z, "
                              "w = b z^-alpha"))
    return checks


# -- the law table ----------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """What the CLI can do with one law.  Each builder takes the parsed
    arguments and the cutoff; a subcommand offers a law only when the
    builder it needs is set."""

    params: tuple = ()  # flags that must be given
    defaults: dict = field(default_factory=dict)  # for optional flags left out
    moments: Callable | None = None  # -> (MomentSeries, extra body fields)
    expand: Callable | None = None  # -> expand body, for laws without moments
    density: Callable | None = None  # -> stable.PowerSumDensity
    verify: Callable | None = None  # -> list of checks


LAWS = {
    "delta0": Law(
        moments=lambda args, cutoff: (transforms.delta_zero(cutoff=cutoff), {}),
        verify=_verify_delta0),
    "cauchy": Law(
        moments=lambda args, cutoff: _classical(stable.StableParams(alpha=1.0, b=1j), cutoff),
        verify=_verify_cauchy),
    "arcsine": Law(moments=lambda args, cutoff: _monotone(2.0, 2.0, cutoff)),
    "semicircle": Law(moments=lambda args, cutoff: _free(2.0, 1.0 + 0j, cutoff)),
    "bernoulli": Law(moments=lambda args, cutoff: _boolean(2.0, 1.0 + 0j, cutoff)),
    "classical-stable": Law(
        params=("alpha",),
        moments=lambda args, cutoff: _classical(_stable_params(args), cutoff),
        verify=_verify_classical_stable),
    "free-stable": Law(
        params=("alpha",),
        moments=lambda args, cutoff: _free(args.alpha, _parse_complex(args.b), cutoff),
        verify=partial(_verify_self_similarity, "free")),
    "boolean-stable": Law(
        params=("alpha",),
        moments=lambda args, cutoff: _boolean(args.alpha, _parse_complex(args.b), cutoff),
        verify=partial(_verify_self_similarity, "boolean")),
    "monotone-stable": Law(
        params=("alpha",),
        moments=lambda args, cutoff: _monotone(args.alpha, _parse_complex(args.b), cutoff),
        verify=partial(_verify_self_similarity, "monotone")),
    "positive-stable": Law(
        params=("alpha",),
        moments=_positive_stable,
        density=lambda args, cutoff: stable.positive_stable_density(args.alpha, cutoff=cutoff),
        verify=_verify_positive_stable),
    "stable-mixture": Law(params=("alpha",), moments=_stable_mixture, verify=_verify_mixture),
    "supremum": Law(
        params=("alpha", "rho"),
        defaults={"M": 12, "N": 12},
        density=_supremum_with_clamp,
        verify=_verify_supremum),
    "last-passage": Law(
        params=("alpha", "d"),
        defaults={"M": 20},
        density=_last_passage,
        verify=_verify_last_passage),
    "mu-br": Law(params=("alpha", "r"), expand=_expand_mu_br, verify=_verify_mu_br),
    "pareto": Law(params=("beta",), expand=_expand_pareto, verify=_verify_pareto),
}


def _laws_with(*builders: str) -> tuple:
    return tuple(name for name, law in LAWS.items()
                 if any(getattr(law, b) is not None for b in builders))


def cmd_verify(args) -> int:
    cutoff = args.cutoff
    checks = _law(args).verify(args, cutoff)
    cfg = {"law": args.law}
    cfg.update(_law_param_echo(args))
    cfg.update(_config_common(args))
    failed = [c for c in checks if c["status"] == "fail"]
    doc = _document("verify", cfg, {
        "checks": checks,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    })
    _emit(_canon(doc), args.out)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is one InvalidArgumentError line, not the usage block."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _add_law_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None,
                   help="stability index in (0, 2]")
    p.add_argument("--b", type=str, default="1",
                   help="complex coefficient, e.g. '1', '1j', '0.5+0.5j'")
    p.add_argument("--gamma0", type=float, default=0.0,
                   help="real location shift for classical stable laws")
    p.add_argument("--c", type=float, default=None,
                   help="scale parameter (with --beta-hat)")
    p.add_argument("--beta-hat", dest="beta_hat", type=float, default=None,
                   help="skewness in [-1, 1] (with --c)")
    p.add_argument("--beta", type=float, default=None, help="tail exponent")
    p.add_argument("--R", type=float, default=1.0, help="tail start")
    p.add_argument("--r", type=float, default=None, help="deformation order >= 1")
    p.add_argument("--rho", type=float, default=None,
                   help="positivity parameter in (0, 1)")
    p.add_argument("--M", type=int, default=None, help="first truncation order")
    p.add_argument("--N", type=int, default=None, help="second truncation order")
    p.add_argument("--d", type=int, default=None, help="space dimension")
    p.add_argument("--nu", choices=_NU_CHOICES, default="uniform",
                   help="mixing moment sequence for stable-mixture")
    p.add_argument("--cutoff", type=float, default=None,
                   help="exponent cutoff (default 20, or GPS_CUTOFF)")
    p.add_argument("--out", type=str, default=None, help="output file")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="powertail",
        description="power-series calculus for heavy-tailed laws on "
                    "exponent semigroups")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="emit one representation of a law")
    p.add_argument("--law", choices=_laws_with("moments", "expand"), required=True)
    p.add_argument("--repr", choices=_REPRS, default="moments")
    _add_law_params(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("density", help="tabulate a density series as CSV")
    p.add_argument("--law", choices=_laws_with("density"), required=True)
    p.add_argument("--x-min", dest="x_min", type=float, required=True)
    p.add_argument("--x-max", dest="x_max", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    _add_law_params(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("convolve", help="convolve two moment series")
    p.add_argument("--kind", choices=_CONV_KINDS, required=True)
    p.add_argument("--in-a", dest="in_a", type=str, default=None)
    p.add_argument("--in-b", dest="in_b", type=str, default=None)
    p.add_argument("--law-a", dest="law_a", choices=_laws_with("moments"), default=None)
    p.add_argument("--law-b", dest="law_b", choices=_laws_with("moments"), default=None)
    _add_law_params(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("classify", help="Diophantine evidence for a real number")
    p.add_argument("--cert", type=str, default=None,
                   help="JSON certificate file")
    p.add_argument("--golden", action="store_true")
    p.add_argument("--rational", type=str, default=None, help="p/q")
    p.add_argument("--float", dest="float_value", type=float, default=None)
    p.add_argument("--super-liouville", dest="super_liouville",
                   action="store_true")
    p.add_argument("--transform", action="append", default=None,
                   metavar="OP[:AMOUNT]",
                   help="scale:Q, shift:Q, or invert; repeatable, applied in order")
    p.add_argument("--profile", type=int, default=None,
                   help="also compute the sine growth profile up to N")
    p.add_argument("--q-limit", dest="q_limit", type=int, default=10 ** 5)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check a law against independent oracles")
    p.add_argument("--law", choices=_laws_with("verify"), required=True)
    _add_law_params(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            # one stderr line per warning, without a source path or line
            warnings.showwarning = lambda message, category, *_: print(
                "warning: %s: %s" % (category.__name__, message), file=sys.stderr)
            args = build_parser().parse_args(argv)
            if "cutoff" in vars(args):  # every subcommand but classify
                args.cutoff, args.cutoff_source = _cutoff(args.cutoff)
            return args.func(args)
    except SystemExit:  # --help has been printed
        return EXIT_OK
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except _GUARD_ERRORS as exc:
        print("numeric guard: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC_GUARD
    except PowertailError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
