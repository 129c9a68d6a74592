"""End-to-end checks of the command line interface.

Almost every test shells out to ``python -m powertail.cli`` so that
argument parsing, environment handling, stream separation, and exit
codes are exercised exactly as a user would hit them.  The property
tests over inputs call ``cli.main`` in process, where a traceback shows
up as an escaping exception.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, strategies as hst

from powertail import cli, stable


def run_cli(*args, env_extra=None, expect=0):
    """Run the CLI and return (stdout, stderr). Asserts the exit code."""
    env = {k: v for k, v in os.environ.items() if k != "GPS_CUTOFF"}
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "powertail.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    return proc.stdout, proc.stderr


def run_json(*args, env_extra=None):
    out, _ = run_cli(*args, env_extra=env_extra)
    return json.loads(out)


# ---------------------------------------------------------------- expand


def test_expand_cauchy_stieltjes_records():
    doc = run_json("expand", "--law", "cauchy", "--repr", "stieltjes", "--cutoff", "8")
    assert doc["format"] == "powertail/1"
    assert doc["command"] == "expand"
    assert doc["representation"] == "stieltjes"
    assert doc["monomial"] == "z^(-gamma-1)"
    assert doc["config"]["law"] == "cauchy"
    for rec in doc["records"]:
        n = rec["exponent"]
        assert rec["index"] == [n]
        want = 1j ** n
        assert abs(complex(rec["re"], rec["im"]) - want) < 1e-12


def test_expand_free_stable_moments_are_catalan():
    doc = run_json(
        "expand", "--law", "free-stable", "--alpha", "2", "--b", "1",
        "--repr", "moments", "--cutoff", "10",
    )
    got = {rec["exponent"]: complex(rec["re"], rec["im"]) for rec in doc["records"]}
    catalan = {0: 1, 2: 1, 4: 2, 6: 5, 8: 14, 10: 42}
    for n, c in catalan.items():
        assert abs(got[n] - c) < 1e-9
    for n in (1, 3, 5, 7, 9):
        assert abs(got.get(n, 0)) < 1e-12


def test_expand_pareto_reports_singular_part():
    doc = run_json("expand", "--law", "pareto", "--repr", "fourier", "--beta", "1", "--cutoff", "8")
    sing = doc["singular"]
    assert sing["has_log_term"] is True
    coef_log = complex(sing["coef_log"]["re"], sing["coef_log"]["im"])
    assert abs(coef_log - (-1j)) < 1e-12
    assert doc["monomial"] == "z^gamma"


def test_expand_parses_complex_skew():
    doc = run_json(
        "expand", "--law", "mu-br", "--repr", "stieltjes",
        "--alpha", "0.5", "--b", "1j", "--r", "2", "--cutoff", "4",
    )
    assert doc["config"]["b"] == "1j"
    got = {rec["exponent"]: complex(rec["re"], rec["im"]) for rec in doc["records"]}
    assert abs(got[0] - 1) < 1e-12
    assert abs(got[0.5] - 0.5j) < 1e-12


def test_expand_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path):
    target = tmp_path / "series.json"
    out, _ = run_cli(
        "expand", "--law", "cauchy", "--repr", "moments", "--cutoff", "6",
        "--out", str(target),
    )
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "expand"


# ------------------------------------------------------- cutoff plumbing


def test_cutoff_env_variable_is_honoured():
    doc = run_json(
        "expand", "--law", "cauchy", "--repr", "moments",
        env_extra={"GPS_CUTOFF": "7"},
    )
    assert doc["config"]["cutoff"] == 7
    assert doc["config"]["cutoff_source"] == "env:GPS_CUTOFF"


def test_cutoff_flag_beats_env_variable():
    doc = run_json(
        "expand", "--law", "cauchy", "--repr", "moments", "--cutoff", "9",
        env_extra={"GPS_CUTOFF": "7"},
    )
    assert doc["config"]["cutoff"] == 9
    assert doc["config"]["cutoff_source"] == "flag"


def test_cutoff_env_garbage_is_a_usage_error():
    _, err = run_cli(
        "expand", "--law", "cauchy", "--repr", "moments",
        env_extra={"GPS_CUTOFF": "abc"}, expect=2,
    )
    assert "GPS_CUTOFF must be a number" in err


# ---------------------------------------------------------------- density


def test_density_positive_stable_csv_shape():
    out, err = run_cli(
        "density", "--law", "positive-stable", "--alpha", "0.5",
        "--x-min", "1.5", "--x-max", "6", "--points", "8",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "density_re", "density_im", "remainder_bound", "flag"]
    assert len(rows) == 9
    # first grid point sits below the validity floor: nan row, flagged,
    # warned about on stderr, but the command still succeeds
    assert rows[1][4] == "outside_validity"
    assert math.isnan(float(rows[1][1]))
    assert "1 of 8 points outside the validity region" in err
    inside = rows[2]
    assert inside[4] == ""
    x = float(inside[0])
    want = x ** -1.5 * math.exp(-1.0 / (4 * x)) / (2 * math.sqrt(math.pi))
    assert abs(float(inside[1]) - want) < 1e-6 * want
    assert float(inside[2]) == 0.0


def test_density_supremum_rows_are_positive_with_remainders():
    out, _ = run_cli(
        "density", "--law", "supremum", "--alpha", "0.43", "--rho", "0.6",
        "--x-min", "1.0", "--x-max", "3.0", "--points", "4",
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    for row in rows:
        assert row["flag"] == ""
        assert float(row["density_re"]) > 0
        assert float(row["remainder_bound"]) >= 0


def test_warnings_are_one_line_each():
    _, err = run_cli(
        "density", "--law", "supremum", "--alpha", "0.6", "--rho", "0.5",
        "--x-min", "20", "--x-max", "30", "--points", "2",
    )
    lines = err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: TruncationWarning:") for line in lines)
    assert not any("cli.py" in line for line in lines)


def test_density_last_passage_runs():
    out, _ = run_cli(
        "density", "--law", "last-passage", "--alpha", "1.5", "--d", "2",
        "--M", "10", "--x-min", "2", "--x-max", "4", "--points", "3",
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["x"]) for r in rows] == [2.0, 3.0, 4.0]
    dens = [float(r["density_re"]) for r in rows]
    assert dens == sorted(dens, reverse=True)
    assert all(d > 0 for d in dens)


# --------------------------------------------------------------- convolve


def test_convolve_free_semicircles_by_law_name():
    doc = run_json(
        "convolve", "--kind", "free", "--law-a", "semicircle",
        "--law-b", "semicircle", "--cutoff", "8",
    )
    got = {rec["exponent"]: complex(rec["re"], rec["im"]) for rec in doc["records"]}
    assert abs(got[2] - 2) < 1e-10
    assert abs(got[4] - 8) < 1e-10


def test_convolve_from_files_doubles_a_cauchy(tmp_path):
    src = tmp_path / "cauchy.json"
    run_cli(
        "expand", "--law", "cauchy", "--repr", "moments", "--cutoff", "6",
        "--out", str(src),
    )
    doc = run_json(
        "convolve", "--kind", "monotone", "--in-a", str(src), "--in-b", str(src),
        "--cutoff", "6",
    )
    got = {rec["exponent"]: complex(rec["re"], rec["im"]) for rec in doc["records"]}
    for n in range(7):
        assert abs(got[n] - (2j) ** n) < 1e-10


# --------------------------------------------------------------- classify


def test_classify_golden_ratio():
    doc = run_json("classify", "--golden")
    assert doc["verdict"] == "NOT_IN_D_EVIDENCE"
    assert doc["certificate"] == "quadratic (1 + sqrt(5))/2"
    assert abs(doc["strongest_b"] - 1.7099759466766968) < 1e-9
    assert doc["precision_limited"] is False
    assert doc["witnesses"]
    assert {"q", "log10_distance", "implied_b"} <= set(doc["witnesses"][0])


def test_classify_rational():
    doc = run_json("classify", "--rational", "22/7")
    assert doc["verdict"] == "RATIONAL"


def test_classify_super_liouville_and_scale_transform():
    doc = run_json("classify", "--super-liouville")
    assert doc["verdict"] == "CERTIFIED_IN_D"
    scaled = run_json("classify", "--super-liouville", "--transform", "scale:2")
    assert scaled["verdict"] == "CERTIFIED_IN_D"


def test_classify_invert_preserves_golden_verdict():
    doc = run_json("classify", "--golden", "--transform", "invert")
    assert doc["verdict"] == "NOT_IN_D_EVIDENCE"


def test_classify_huge_partial_quotient_reads_an_infinite_base():
    # the second convergent denominator is about 6e319, past the float range
    out, err = run_cli("classify", "--golden", "--transform", "scale:1/1" + "0" * 320)
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_IN_D_EVIDENCE"
    assert doc["witnesses"][0]["implied_b"] == "inf"
    assert abs(doc["witnesses"][0]["log10_distance"] + 319.791) < 1e-3


def test_classify_float_is_precision_limited():
    doc = run_json("classify", "--float", "0.7390851332151607")
    assert doc["precision_limited"] is True


def test_classify_profile_section():
    doc = run_json("classify", "--golden", "--profile", "100")
    prof = doc["profile"]
    assert prof["N"] == 100
    assert abs(prof["running_max_log"] - 0.9242543578978548) < 1e-9


# ----------------------------------------------------------------- verify


def test_verify_cauchy_all_pass():
    doc = run_json("verify", "--law", "cauchy")
    assert doc["failed"] == 0
    assert doc["passed"] >= 1
    for check in doc["checks"]:
        assert check["status"] == "pass"
        assert check["discrepancy"] <= check["tolerance"]


@pytest.mark.parametrize("argv", [
    ("verify", "--law", "cauchy"),
    ("verify", "--law", "positive-stable", "--alpha", "0.5"),
    ("verify", "--law", "positive-stable", "--alpha", "0.75"),
    ("verify", "--law", "positive-stable", "--alpha", "0.95"),
], ids=["cauchy", "ps-0.5", "ps-0.75", "ps-0.95"])
def test_verify_inversion_reports_the_series_not_the_extrapolation(argv):
    # the inverted resolvent and the density agree to rounding; the oracle's
    # default heights alone would report 1e-11 to 2e-8 here
    doc = run_json(*argv)
    (check,) = [c for c in doc["checks"] if c["name"].endswith("inversion")]
    assert check["status"] == "pass"
    assert check["discrepancy"] <= 1e-14


def test_verify_pareto_integer_beta_flags_log_term():
    doc = run_json("verify", "--law", "pareto", "--beta", "2")
    by_name = {c["name"]: c for c in doc["checks"]}
    log_check = by_name["log-term-detection"]
    assert log_check["status"] == "pass-with-flag"
    assert log_check["flag"] == "log-term-present"
    assert doc["failed"] == 0


def test_verify_classical_stable_flags_growth_instability():
    doc = run_json("verify", "--law", "classical-stable", "--alpha", "1.5")
    by_name = {c["name"]: c for c in doc["checks"]}
    check = by_name["membership-dichotomy"]
    assert check["status"] == "pass-with-flag"
    assert check["flag"] == "growth-instability-expected"


# a slowly decaying deformed resolvent: |z G(z) - 1| at z = 40 - 30i reads 0.267
_MU_BR_SLOW = ["verify", "--law", "mu-br", "--alpha", "0.3",
               "--b=-0.8910065241883678+0.45399049973954686j", "--r", "3"]


@pytest.mark.parametrize("argv", [
    _MU_BR_SLOW,
    # low cutoffs, where the fitted growth understates the coefficients'
    ["verify", "--law", "mu-br", "--alpha", "1", "--b=1", "--r", "1.5", "--cutoff", "8"],
    ["verify", "--law", "mu-br", "--alpha", "2", "--b=0.2", "--r", "1.5", "--cutoff", "6"],
    # below the cutoff 2 alpha the series is the leading 1 / z alone
    ["verify", "--law", "mu-br", "--alpha", "0.3", "--b=-1", "--r", "3", "--cutoff", "0.5"],
    # b z^-alpha is far below an ulp of 1 at the point
    ["verify", "--law", "mu-br", "--alpha", "0.3", "--b=-1e-300", "--r", "3"],
], ids=["slow", "cutoff-8", "cutoff-6", "leading-term-only", "tiny-b"])
def test_verify_mu_br_passes_a_correct_series(argv):
    code, out, _ = main_output(argv)
    assert code == 0
    check = {c["name"]: c for c in json.loads(out)["checks"]}["closed-form"]
    assert check["status"] == "pass"
    assert check["discrepancy"] <= 1e-3 * check["tolerance"]


def test_verify_mu_br_fails_a_series_with_one_wrong_coefficient(monkeypatch):
    build = stable.mu_br

    def perturbed(alpha, b, r, cutoff):
        S = build(alpha, b, r, cutoff=cutoff)
        return S.with_terms({**S.terms, 2 * alpha: S.terms[2 * alpha] * (1 + 1e-4)})

    monkeypatch.setattr(stable, "mu_br", perturbed)
    code, out, _ = main_output(_MU_BR_SLOW)
    assert code == 3
    check = {c["name"]: c for c in json.loads(out)["checks"]}["closed-form"]
    assert check["status"] == "fail"


def test_expand_keeps_the_lattice_rational_at_half_the_cutoff():
    # the growth diagnosis truncates at cutoff / 2, the double of 1/3
    doc = run_json("expand", "--law", "classical-stable", "--alpha", "0.3333333333333333",
                   "--b=-1", "--cutoff", "0.6666666666666666")
    assert [r["exponent"] for r in doc["records"]] == [0, 1 / 3, 2 / 3]


def test_verify_exit_three_when_a_check_fails():
    out, _ = run_cli(
        "verify", "--law", "cauchy",
        env_extra={"GPS_CUTOFF": "4"}, expect=3,
    )
    doc = json.loads(out)
    assert doc["failed"] >= 1


def test_verify_exit_four_on_numeric_guard():
    _, err = run_cli(
        "verify", "--law", "supremum", "--alpha", "0.6", "--rho", "0.5",
        expect=4,
    )
    assert "numeric guard" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--golden", "--profile", "100000000"),
    ("density", "--law", "positive-stable", "--alpha", "0.5",
     "--x-min", "2", "--x-max", "8", "--points", "1000000000"),
    ("density", "--law", "supremum", "--alpha", "0.43", "--rho", "0.6",
     "--M", "1000000", "--N", "1000000", "--x-min", "2", "--x-max", "8"),
    # Gamma(n/2 + 1) / n! is inf / inf at order 343
    ("density", "--law", "positive-stable", "--alpha", "0.5", "--cutoff", "200",
     "--x-min", "4", "--x-max", "8", "--points", "3"),
    # the Cauchy moment at 171 is not finite
    ("convolve", "--kind", "classical", "--law-a", "cauchy", "--law-b", "cauchy",
     "--cutoff", "200"),
    # R^k / k! past the float range (about 1e309 at k = 89)
    ("expand", "--law", "pareto", "--repr", "fourier", "--beta", "1.5", "--R", "1e5",
     "--cutoff", "200"),
    ("expand", "--law", "pareto", "--repr", "fourier", "--beta", "0.5", "--R", "1e200"),
    ("verify", "--law", "pareto", "--beta", "1.5", "--R", "1e100"),
])
def test_oversized_requests_exit_four_with_one_line(argv):
    out, err = run_cli(*argv, expect=4)
    assert out == ""
    assert err.startswith("numeric guard:") and "limit" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # about 2e10 mixing moments, and 1e9 terms R^k / k!: the grid budget
    # refuses both before either list is sized
    ("expand", "--law", "stable-mixture", "--alpha", "1e-9"),
    ("expand", "--law", "pareto", "--repr", "fourier", "--beta", "1.5", "--cutoff", "1e9"),
])
def test_lists_sized_by_the_input_wait_for_the_grid_budget(argv):
    out, err = run_cli(*argv, expect=4)
    assert out == ""
    assert err.startswith("numeric guard:") and "lattice points" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_past_gamma_and_factorial_overflow_where_every_term_is_finite():
    # Gamma(172) is inf, but delta0 (+) delta0 holds the exponent 0 alone
    out, err = run_cli("convolve", "--kind", "classical", "--law-a", "delta0",
                       "--law-b", "delta0", "--cutoff", "200")
    recs = json.loads(out)["records"]
    assert {r["exponent"]: complex(r["re"], r["im"]) for r in recs} == {0: 1} and err == ""
    # 200! is past the float range, but R^k / k! is not
    out, err = run_cli("expand", "--law", "pareto", "--repr", "fourier", "--beta", "1.5",
                       "--cutoff", "200")
    assert max(r["exponent"] for r in json.loads(out)["records"]) > 170 and err == ""


def test_pair_guard_counts_the_sub_grid_a_kernel_runs_on():
    # the whole grid has 53M exponent pairs at cutoff 120, but the reciprocal
    # that makes the law's form runs on the multiples of alpha alone
    out, err = run_cli("expand", "--law", "classical-stable", "--alpha", "0.4123",
                       "--b=-1", "--cutoff", "120", "--repr", "F")
    assert json.loads(out)["records"] and err == ""
    # the Cauchy moments fill the naturals, whose grid has 200M pairs: they
    # run no kernel, but their form's reciprocal is refused
    out, err = run_cli("expand", "--law", "cauchy", "--cutoff", "20000", "--repr", "F",
                       expect=4)
    assert out == "" and err.startswith("numeric guard:") and "exponent pairs" in err
    assert err.count("\n") == 1


def test_cauchy_moments_pass_gamma_overflow():
    # Gamma(k + 1) and k! overflow from k = 171 on, but their ratio is 1
    out, err = run_cli("expand", "--law", "cauchy", "--cutoff", "200")
    recs = json.loads(out)["records"]
    assert len(recs) == 201 and err == ""
    assert {abs(complex(r["re"], r["im"])) for r in recs} == {1.0}


# ------------------------------------------------------------ exit code 2


def test_bad_alpha_is_a_usage_error():
    _, err = run_cli(
        "expand", "--law", "classical-stable", "--alpha", "2.5",
        "--repr", "fourier", expect=2,
    )
    assert "stability index must lie in (0, 2]" in err


def test_pareto_rejects_stieltjes_representation():
    _, err = run_cli(
        "expand", "--law", "pareto", "--repr", "stieltjes", "--beta", "1.5",
        expect=2,
    )
    assert "pareto expands on the Fourier side only" in err


def assert_one_line_error(err):
    assert err.startswith("error:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("classify", "--rational", "1/0"),
    ("classify", "--rational", "abc"),
    ("classify", "--golden", "--transform", "bogus"),
    ("classify", "--golden", "--transform", "scale:x"),
    ("classify", "--golden", "--q-limit", "0"),
    ("classify", "--golden", "--q-limit", "-5"),
    # 1.0 / q overflows past about 1.8e308
    ("classify", "--golden", "--q-limit", str(10 ** 400)),
    ("classify", "--golden", "--profile", "0"),
    ("classify", "--golden", "--profile", "-3"),
])
def test_bad_classify_input_exits_two_with_one_line(argv):
    out, err = run_cli(*argv, expect=2)
    assert out == ""
    assert_one_line_error(err)


def _drop_config(doc):
    del doc["config"]


def _nan_coefficient(doc):
    doc["records"][1]["re"] = math.nan


def _infinite_coefficient(doc):
    doc["records"][1]["im"] = -math.inf


def _records_not_a_list(doc):
    doc["records"] = 3


@pytest.mark.parametrize("spoil, words", [
    (_drop_config, "config"),
    (_nan_coefficient, "must be a finite number, got nan"),
    (_infinite_coefficient, "must be a finite number, got -inf"),
    (_records_not_a_list, "malformed moments file"),
])
def test_bad_convolve_file_exits_two_with_one_line(tmp_path, spoil, words):
    good = tmp_path / "good.json"
    run_cli("expand", "--law", "semicircle", "--cutoff", "6", "--out", str(good))
    doc = json.loads(good.read_text())
    spoil(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # json writes NaN and -Infinity literally
    out, err = run_cli("convolve", "--kind", "free", "--in-a", str(bad),
                       "--in-b", str(good), expect=2)
    assert out == ""
    assert_one_line_error(err)
    assert str(bad) in err and words in err


def main_output(argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_main(argv):
    """cli.main in process: (exit code, stderr); stdout is discarded."""
    code, _, err = main_output(argv)
    return code, err


_DELETE = object()
_JSON_VALUE = hst.recursive(
    hst.one_of(hst.none(), hst.booleans(), hst.integers(-50, 50),
               hst.floats(allow_nan=True, allow_infinity=True), hst.text(max_size=4)),
    lambda kids: hst.lists(kids, max_size=3) | hst.dictionaries(
        hst.text(max_size=3), kids, max_size=3),
    max_leaves=5)
_MOMENTS_PLACES = [("format",), ("representation",), ("generators",),
                   ("config",), ("config", "cutoff"), ("records",),
                   ("records", 0), ("records", 1, "exponent"),
                   ("records", 1, "re"), ("records", 2, "im")]


@pytest.fixture(scope="module")
def semicircle_doc():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        assert run_main(["expand", "--law", "semicircle", "--cutoff", "6",
                         "--out", path])[0] == 0
        with open(path) as fh:
            return json.load(fh)


@given(place=hst.sampled_from(_MOMENTS_PLACES),
       value=hst.one_of(hst.just(_DELETE), _JSON_VALUE))
def test_any_spoiled_moments_file_exits_cleanly(semicircle_doc, place, value):
    doc = json.loads(json.dumps(semicircle_doc))
    *parents, last = place
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, err = run_main(["convolve", "--kind", "boolean", "--in-a", path,
                              "--in-b", path, "--cutoff", "6"])
    assert code in (0, 2, 4)
    assert code == 0 or (err.count("\n") == 1 and ":" in err)


@given(rational=hst.text(max_size=8), transform=hst.text(max_size=10))
def test_any_classify_text_exits_cleanly(rational, transform):
    # the = form keeps argparse from reading a leading "-" as an option
    code, err = run_main(["classify", "--rational=" + rational,
                          "--transform=" + transform, "--q-limit", "1000"])
    assert code in (0, 2, 4)
    assert code == 0 or err.count("\n") == 1


# a flag value: a number in the range most laws take, any plausible number,
# a spelling the parsers must refuse, or any text
_FLAG_VALUE = hst.one_of(
    hst.floats(0.0, 2.5).map(repr),
    hst.integers(-3, 60).map(str),
    hst.floats(-5.0, 50.0).map(repr),
    hst.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "", "1j", "0.5+0.5j",
                      "-1-1j", "2/3", "1e-300"]),
    hst.text(max_size=6))
_LAW_FLAGS = ("--alpha", "--b", "--gamma0", "--c", "--beta-hat", "--beta", "--R",
              "--r", "--rho", "--M", "--N", "--d", "--nu", "--cutoff")
_INT_VALUE = hst.one_of(hst.integers(-3, 60).map(str), _FLAG_VALUE)


def _choices(names):
    """The names a choice flag accepts, and two it refuses."""
    return hst.sampled_from(list(names) + ["", "nope"])


def _laws(*parts):
    return _choices(name for name, law in cli.LAWS.items()
                    if any(getattr(law, part) for part in parts))


# per subcommand: (flags every argv carries, flags drawn from)
_COMMAND_FLAGS = {
    "expand": (("--law",), ("--repr",) + _LAW_FLAGS),
    "density": (("--law", "--x-min", "--x-max"), ("--points",) + _LAW_FLAGS),
    "convolve": (("--kind", "--law-a", "--law-b"), _LAW_FLAGS),
}
_VALUES = {
    ("expand", "--law"): _laws("moments", "expand"),
    ("density", "--law"): _laws("density"),
    ("convolve", "--law-a"): _laws("moments"),
    ("convolve", "--law-b"): _laws("moments"),
    "--repr": _choices(["moments", "fourier", "stieltjes", "F", "voiculescu", "tail"]),
    "--kind": _choices(["classical", "free", "boolean", "monotone"]),
    "--nu": _choices(["uniform", "delta1"]),
    "--M": _INT_VALUE, "--N": _INT_VALUE, "--d": _INT_VALUE, "--points": _INT_VALUE,
}


@hst.composite
def _law_argv(draw):
    command = draw(hst.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    flags = draw(hst.lists(hst.sampled_from(optional), unique=True, max_size=6))
    argv = [command]
    for flag in required + tuple(flags):
        value = _VALUES.get((command, flag), _VALUES.get(flag, _FLAG_VALUE))
        argv.append(flag + "=" + draw(value))
    return argv


@given(argv=_law_argv())
def test_any_law_flags_exit_cleanly(argv):
    code, err = run_main(argv)
    assert code in (0, 2, 3, 4), err
    lines = err.splitlines()
    if code:
        assert len(lines) == 1 and err.endswith("\n"), err
    else:
        assert all(line.startswith("warning: ") for line in lines), err


# -------------------------------------------------------------- law table


# one cheap parameter point per law in cli.LAWS, run at cutoff 8
_LAW_POINTS = {
    "delta0": [], "cauchy": [], "arcsine": [], "semicircle": [], "bernoulli": [],
    "classical-stable": ["--alpha", "0.7", "--b", "0.5+1j"],
    "free-stable": ["--alpha", "1.5", "--b", "0.5"],
    "boolean-stable": ["--alpha", "1.5", "--b", "0.5"],
    "monotone-stable": ["--alpha", "1.5", "--b", "0.5"],
    "positive-stable": ["--alpha", "0.5"],
    "stable-mixture": ["--alpha", "0.7"],
    "supremum": ["--alpha", "0.43", "--rho", "0.6"],
    "last-passage": ["--alpha", "1.5", "--d", "3"],
    "mu-br": ["--alpha", "0.5", "--b", "1j", "--r", "2"],
    "pareto": ["--beta", "1.5"],
}
_EXPAND_REPR = {"mu-br": "stieltjes", "pareto": "fourier"}
_DENSITY_RANGE = {"positive-stable": ["--x-min", "2", "--x-max", "6"],
                  "supremum": ["--x-min", "1", "--x-max", "3"],
                  "last-passage": ["--x-min", "4", "--x-max", "8"]}
# the cutoff-8 Cauchy series is 2.5e-6 off the Fourier quadrature (tolerance 1e-7)
_EXIT = {("verify", "cauchy"): 3}


def _table_argvs():
    """(argv, exit code) for every (subcommand, law) pair of the table,
    and exit 2 for every pair it does not offer."""
    kinds = ("classical", "free", "boolean", "monotone")
    cases = []
    for i, (name, law) in enumerate(cli.LAWS.items()):
        point = _LAW_POINTS[name] + ["--cutoff", "8"]
        offered = {
            "expand": ["--law", name, "--repr", _EXPAND_REPR.get(name, "moments")]
            if law.moments or law.expand else None,
            "convolve": ["--kind", kinds[i % 4], "--law-a", name, "--law-b", name]
            if law.moments else None,
            "density": ["--law", name, *_DENSITY_RANGE.get(name, []), "--points", "3"]
            if law.density else None,
            "verify": ["--law", name] if law.verify else None,
        }
        for command, args in offered.items():
            if args is None:
                flag = "--law-a" if command == "convolve" else "--law"
                cases.append(([command, flag, name, *point], 2))
            else:
                cases.append(([command, *args, *point], _EXIT.get((command, name), 0)))
    return cases


_TABLE_CASES = _table_argvs()


@pytest.mark.parametrize("argv, code", _TABLE_CASES,
                         ids=[" ".join(argv) for argv, _ in _TABLE_CASES])
def test_every_law_runs_where_the_table_offers_it(argv, code):
    got, out, err = main_output(argv)
    assert got == code, err
    if code == 2:
        assert out == ""
        assert_one_line_error(err)
        assert "invalid choice" in err
    else:
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("classify", "--rational"),
    ("expand", "--law", "nope"),
    ("expand",),
    ("density", "--law", "cauchy", "--x-min", "1", "--x-max", "2"),
    ("verify", "--law", "arcsine"),
    ("density", "--law", "positive-stable", "--alpha", "0.5",
     "--x-min", "nan", "--x-max", "8"),
    ("density", "--law", "positive-stable", "--alpha", "0.5",
     "--x-min", "2", "--x-max", "inf"),
    # checked before any mixing moment is sized
    ("expand", "--law", "stable-mixture", "--alpha", "-1"),
    # a cutoff that keeps no term of the density series
    ("density", "--law", "positive-stable", "--alpha", "0.5", "--cutoff", "-1",
     "--x-min", "2", "--x-max", "4", "--points", "3"),
    ("density", "--law", "positive-stable", "--alpha", "0.5", "--cutoff", "0",
     "--x-min", "2", "--x-max", "4", "--points", "3"),
    ("density", "--law", "positive-stable", "--alpha", "0.5", "--cutoff", "0.4",
     "--x-min", "2", "--x-max", "4", "--points", "3"),
    # the CLI checks every cutoff itself, whatever the law would check
    *[("density", "--law", "last-passage", "--alpha", "1.5", "--d", "3", "--x-min", "4",
       "--x-max", "8", "--points", "3", "--cutoff", bad) for bad in ("nan", "-1", "inf")],
    ("verify", "--law", "pareto", "--beta", "1.5", "--cutoff", "-1"),
    ("expand", "--law", "cauchy", "--cutoff", "0"),
    ("convolve", "--kind", "free", "--law-a", "semicircle", "--law-b", "semicircle",
     "--cutoff", "-inf"),
])
def test_usage_errors_exit_two_with_one_line(argv):
    code, out, err = main_output(argv)
    assert code == 2
    assert out == ""
    assert_one_line_error(err)


@pytest.mark.parametrize("flag, env", [("nan", None), ("-1", None), ("inf", None), ("0", "7"),
                                       (None, "nan"), (None, "-1"), (None, "inf"), (None, "0")])
@pytest.mark.parametrize("argv", [
    ("expand", "--law", "cauchy"),
    ("verify", "--law", "pareto", "--beta", "1.5"),
    ("density", "--law", "last-passage", "--alpha", "1.5", "--d", "3", "--x-min", "4",
     "--x-max", "8", "--points", "3")], ids=["expand", "verify", "density"])
def test_a_cutoff_that_is_not_a_positive_real_is_refused_once(argv, flag, env, monkeypatch):
    if env is None:
        monkeypatch.delenv("GPS_CUTOFF", raising=False)
    else:
        monkeypatch.setenv("GPS_CUTOFF", env)
    code, out, err = main_output(argv + (("--cutoff", flag) if flag else ()))
    assert (code, out, err) == (2, "", "error: cutoff must be a positive real\n")


def test_help_still_prints_and_exits_zero():
    code, out, _ = main_output(["expand", "-h"])
    assert code == 0
    assert "--law" in out


@pytest.mark.parametrize("argv, den", [
    (["density", "--law", "supremum", "--alpha", "0.7345", "--rho", "0.5",
      "--M", "0", "--N", "2", "--x-min", "1", "--x-max", "4", "--points", "6"],
     lambda: stable.supremum_density(
         stable.SupremumSeriesParams(alpha=0.7345, rho=0.5, M=0, N=2))),
    (["density", "--law", "last-passage", "--alpha", "1.5", "--d", "3",
      "--M", "0", "--x-min", "4", "--x-max", "12", "--points", "5"],
     lambda: stable.last_passage_density(stable.LastPassageParams(alpha=1.5, d=3, M=0))),
], ids=["supremum", "last-passage"])
def test_density_at_M_zero_is_the_order_zero_series(argv, den):
    code, out, _ = main_output(argv)
    assert code == 0
    den = den()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == int(argv[-1])
    for row in rows:
        assert row["flag"] == ""
        assert float(row["density_re"]) == den.density(float(row["x"]))


@pytest.mark.parametrize("kind", ["classical", "free", "boolean", "monotone"])
def test_convolve_lifts_laws_on_different_semigroups(kind):
    code, out, err = main_output(["convolve", "--kind", kind, "--law-a", "stable-mixture",
                                  "--law-b", "arcsine", "--alpha", "0.7", "--cutoff", "6"])
    assert code == 0, err
    assert json.loads(out)["generators"] == [0.7]


def test_lattice_past_exact_doubles_is_refused(tmp_path):
    # common denominator 999961 * 999979 * 999983, about 1e18: cutoff 10
    # needs lattice integers near 1e19
    doc = {"format": "powertail/1", "representation": "moments",
           "generators": [999960 / 999961, 999978 / 999979, 999982 / 999983],
           "config": {"cutoff": 10}, "records": [{"exponent": 0, "re": 1, "im": 0}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out, err = run_cli("convolve", "--kind", "classical", "--in-a", str(path),
                       "--in-b", str(path), expect=2)
    assert out == ""
    assert_one_line_error(err)
    assert "2^53" in err


def test_verify_supremum_doubles_the_given_orders():
    code, out, _ = main_output(["verify", "--law", "supremum", "--alpha", "0.43",
                                "--rho", "0.6", "--M", "3", "--N", "3"])
    small, big = (stable.supremum_density(stable.SupremumSeriesParams(
        alpha=0.43, rho=0.6, M=k, N=k)) for k in (3, 6))
    x = 5.0 * max(small.x_min, big.x_min)
    gap = abs(small.density(x) - big.density(x)) / abs(big.density(x))
    (check,) = json.loads(out)["checks"]
    assert check["note"] == "x = %.17g, relative" % x
    assert check["discrepancy"] == gap
    # orders (3, 3) and (6, 6) are far from agreeing to 1e-8
    assert check["status"] == "fail" and code == 3


# -------------------------------------------------------------- start-up


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import powertail
import powertail.cli as cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["expand", "--law", "classical-stable", "--alpha", "0.7",
         "--b", "0.5+1j", "--repr", "fourier", "--cutoff", "8"],
        ["convolve", "--kind", "free", "--law-a", "semicircle",
         "--law-b", "semicircle", "--cutoff", "8"],
        ["classify", "--golden", "--profile", "50"],
        ["verify", "--law", "cauchy"],
        ["verify", "--law", "pareto", "--beta", "1.5"],
        ["verify", "--law", "classical-stable", "--alpha", "0.5", "--b=-1"],
        ["verify", "--law", "delta0"],
        ["verify", "--law", "positive-stable", "--alpha", "0.6"],
        ["expand", "--law", "pareto", "--beta", "2", "--repr", "fourier"],
        ["density", "--law", "positive-stable", "--alpha", "0.5", "--x-min", "4",
         "--x-max", "8", "--points", "5"],
    ):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy") and sys.modules[m] is not None)}))
"""


def test_expand_convolve_classify_start_without_scipy():
    # the quadrature oracles and the Pareto constant run on numpy alone:
    # every subcommand, verify's oracles included, exits as it does with scipy
    env = {k: v for k, v in os.environ.items() if k != "GPS_CUTOFF"}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0] * 10
    assert seen["scipy"] == []


def run_python(script: str) -> tuple[str, str]:
    """Run script in a fresh interpreter, which must exit 0: (stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "GPS_CUTOFF"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


_MODULES_AFTER = """
import contextlib, io, json, sys, types
{run}
# a module bound lazily keeps LazyLoader's class until its first read
print(json.dumps({{k: type(m) is types.ModuleType for k, m in sys.modules.items()
                  if m is not None and (k == "numpy" or k.startswith("powertail."))}}))
"""


def modules_after(run: str) -> dict:
    """{module: whether it ran} for numpy and every powertail submodule in
    sys.modules, after the statements in run execute in a fresh interpreter."""
    return json.loads(run_python(_MODULES_AFTER.format(run=run))[0])


def test_import_powertail_loads_no_submodule_and_no_numpy():
    assert modules_after("import powertail") == {}


def test_expand_loads_only_the_modules_its_law_reads():
    argv = ["expand", "--law", "classical-stable", "--alpha", "0.5", "--b=-1"]
    seen = modules_after("import powertail.cli as cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    assert cli.main(%r) == 0" % argv)
    ran = {name for name, done in seen.items() if done}
    assert {"numpy", "powertail.stable", "powertail.transforms"} <= ran
    assert not ran & {"powertail.diophantine", "powertail.oracles", "powertail.pareto"}


def test_classify_runs_without_numpy_and_prints_the_same_bytes():
    argv = ["classify", "--golden", "--profile", "50"]
    out, err = run_python("import sys\n"
                          "sys.modules['numpy'] = None  # any import of numpy raises\n"
                          "from powertail.cli import main\n"
                          "sys.exit(main(%r))" % argv)
    assert err == ""
    assert out == run_cli(*argv)[0]


def test_every_public_name_is_its_modules_own():
    import powertail
    for name in powertail.__all__:
        home = importlib.import_module("powertail." + powertail._HOME[name])
        assert getattr(powertail, name) is getattr(home, name), name
    for module in ("errors", "semigroup", "series", "transforms", "pareto", "stable",
                   "diophantine", "oracles"):
        assert getattr(powertail, module) is importlib.import_module("powertail." + module)
    assert set(powertail.__all__) <= set(dir(powertail))
    namespace = {}
    exec("from powertail import *", namespace)
    assert {name: namespace[name] for name in powertail.__all__} == {
        name: getattr(powertail, name) for name in powertail.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        powertail.no_such_name
    with pytest.raises(ImportError):
        exec("from powertail import no_such_name", {})


def test_a_convolution_past_double_range_exits_four_with_one_line(tmp_path):
    path = tmp_path / "big.json"
    assert run_main(["expand", "--law", "boolean-stable", "--alpha", "1.5", "--b=0.5",
                     "--cutoff", "12", "--out", str(path)]) == (0, "")
    doc = json.loads(path.read_text())
    for rec in doc["records"]:
        if rec["exponent"] in (1.5, 3.0):
            rec["re"] = 1e200
    path.write_text(json.dumps(doc))
    # the kernels overflow with numpy's warnings off: the finite check speaks alone
    for kind in cli._CONV_KINDS:
        code, out, err = main_output(["convolve", "--kind", kind, "--in-a", str(path),
                                      "--in-b", str(path)])
        assert (code, out) == (4, ""), kind
        assert err.startswith("numeric guard: the coefficient at exponent 3 is")
        assert err.count("\n") == 1, err


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "--law", "boolean-stable", "--alpha", "1.3", "--b", "1",
         "--repr", "moments", "--cutoff", "8"),
        ("classify", "--golden"),
        ("verify", "--law", "cauchy"),
    ],
    ids=["expand", "classify", "verify"],
)
def test_repeated_runs_are_byte_identical(args):
    first, _ = run_cli(*args)
    second, _ = run_cli(*args)
    assert first == second
