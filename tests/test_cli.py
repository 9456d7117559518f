import json
import subprocess
import sys

import pytest

from certquad.cli import (
    CERT_VIOLATION,
    NUMERIC_FAILURE,
    OK,
    USAGE_ERROR,
    build_parser,
    certificate_matrix,
    certificate_ok,
    main,
    run,
)

SCHEMA_KEYS = {"command", "inputs", "estimate", "oracle", "bound", "provenance", "pass"}


def invoke(args):
    proc = subprocess.run(
        [sys.executable, "-m", "certquad", *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(capsys, argv):
    args = build_parser().parse_args(argv)
    code = run(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_main(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--function", "poly22", "--p", "inf", "--rule", "trapezoid",
             "--format", "json"],
            ["bound", "--function", "xy", "--p", "2", "--rule", "composite-midpoint",
             "--m", "2", "--n", "2", "--format", "json"],
            ["verify-identity", "--function", "expsum", "--weight", "midpoint",
             "--format", "json"],
        ],
    )
    def test_fixed_field_names_and_roundtrip(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        assert code == OK
        assert set(payload.keys()) == SCHEMA_KEYS
        assert set(payload["oracle"].keys()) == {"value", "err"}
        assert set(payload["bound"].keys()) == {"total", "fx_term", "fy_term", "fxy_term"}
        # round-trip: emit -> parse -> emit is the identity
        assert json.loads(json.dumps(payload)) == payload

    def test_converge_emits_report_list(self, capsys):
        code, payload = run_json(
            capsys,
            ["converge", "--function", "xy", "--p", "inf", "--rule",
             "composite-trapezoid", "--levels", "2", "--format", "json"],
        )
        assert code == OK
        assert isinstance(payload, list) and len(payload) == 3
        for item, n in zip(payload, (1, 2, 4)):
            assert set(item.keys()) == SCHEMA_KEYS
            assert item["inputs"]["n"] == n
            assert item["pass"] is True

    def test_integrate_reports_worked_example(self, capsys):
        code, payload = run_json(
            capsys,
            ["integrate", "--function", "poly22", "--rect", "0", "1", "0", "1",
             "--p", "inf", "--rule", "trapezoid", "--format", "json"],
        )
        assert code == OK
        assert payload["estimate"] == pytest.approx(0.25)
        assert payload["oracle"]["value"] == pytest.approx(1.0 / 9.0)
        assert payload["bound"]["total"] == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("rule", ["trapezoid", "composite-midpoint"])
    def test_norm_provenance_names_line_lists(self, capsys, rule):
        code, payload = run_json(
            capsys,
            ["integrate", "--function", "poly22", "--p", "2", "--rule", rule,
             "--m", "2", "--n", "3", "--format", "json"],
        )
        assert code == OK
        assert payload["provenance"][-1] == "norms: fxy=analytic, x_lines=analytic, y_lines=analytic"

    def test_minimize_norm_report(self, capsys):
        code, payload = run_json(
            capsys, ["minimize-norm", "--q", "2", "--restarts", "2", "--format", "json"])
        assert code == OK
        assert payload["estimate"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert payload["oracle"]["value"] == pytest.approx(2.0 / 3.0)

    def test_minimize_norm_sup_norm(self, capsys):
        code, payload = run_json(capsys, ["minimize-norm", "--q", "inf", "--format", "json"])
        assert code == OK
        assert payload["estimate"] == pytest.approx(1.0, abs=1e-6)

    def test_corpus_report_summary(self, capsys):
        code, payload = run_json(
            capsys, ["corpus-report", "--max-n", "1", "--resolution", "96",
                     "--format", "json"])
        assert code == OK
        assert payload["pass"] is True
        assert payload["provenance"][0].endswith("0 violations")


class TestExitCodes:
    def test_success(self):
        code, out, _ = invoke(["integrate", "--function", "xy", "--p", "1"])
        assert code == OK
        assert "certificate : ok" in out

    def test_unknown_function_is_usage_error(self):
        code, _, err = invoke(["integrate", "--function", "nosuch"])
        assert code == USAGE_ERROR
        assert "available" in err

    def test_bad_exponent_is_usage_error(self):
        code, _, err = invoke(["integrate", "--p", "minus"])
        assert code == USAGE_ERROR
        assert "exponent" in err

    def test_bad_rect_is_usage_error(self):
        code, _, _ = invoke(["integrate", "--rect", "1", "0", "0", "1"])
        assert code == USAGE_ERROR

    def test_argparse_usage_error(self):
        code, _, _ = invoke(["integrate", "--rule", "simpson"])
        assert code == 2

    def test_numeric_failure_for_singular_integrand(self):
        # invsum on a rectangle touching the singular line 1 + x + y = 0
        code, _, err = invoke(
            ["integrate", "--function", "invsum", "--rect", "-2", "3", "1", "4"])
        assert code == USAGE_ERROR or code == NUMERIC_FAILURE

    def test_invsum_refuses_a_rectangle_its_closed_form_cancels_on(self, capsys):
        # at h = 1e-9 the closed form's corner difference is all rounding: it
        # read 0 against an estimate of 2.5e-19
        code, out, err = run_main(capsys, ["integrate", "--function", "invsum", "--rect", "1", "1.000000001",
                                           "2", "2.000000001", "--p", "inf"])
        assert code == USAGE_ERROR
        assert out == ""
        assert err.startswith("error: integrand 'invsum' (")

    def test_overflowing_exact_integral_is_usage_error(self):
        code, _, err = invoke(["integrate", "--function", "expsum", "--rect", "1000", "1001", "0", "1",
                               "--p", "2"])
        assert code == USAGE_ERROR
        assert err.startswith("error: the exact integral of 'expsum' over Rectangle(a=1000.0")

    def test_overflowing_ramp_norm_is_usage_error(self, capsys):
        code, out, err = run_main(capsys, ["integrate", "--function", "sinsin", "--rect", "0", "1e300", "0", "1",
                                           "--p", "2"])
        assert code == USAGE_ERROR
        assert out == ""
        assert err.startswith("error: span 1e+300 over 1 cells is too wide")

    def test_violation_exit_code_via_run(self, capsys, monkeypatch):
        # force a fake oracle so the certificate check fails deterministically
        import certquad.cli as cli

        monkeypatch.setattr(cli, "oracle_integrate", lambda f, rect: (100.0, 0.0))
        args = build_parser().parse_args(["integrate", "--function", "xy", "--p", "2"])
        assert run(args) == CERT_VIOLATION
        capsys.readouterr()


def test_certificate_margin_follows_the_scale():
    # the margin is max(tol, CERT_MARGIN_REL) * (scale + |bound|): an error of
    # 2.5e-19 against a bound of 3e-29 violates on an integral of size 1e-18;
    # the default scale of 1 makes the margin absolute
    assert not certificate_ok(2.5e-19, 3.125e-29, 1e-8, 1e-18)
    assert certificate_ok(2.5e-19, 3.125e-29, 1e-8)
    assert certificate_ok(1.0 + 1e-9, 1.0, 1e-8, 1.0)
    assert not certificate_ok(1.0 + 1e-11, 1.0, 0.0, 0.0) and certificate_ok(1.0 + 1e-13, 1.0, 0.0, 0.0)


class TestReportedPartition:
    """Reports echo the partition they used, not the --m/--n that a simple rule ignores."""

    def test_simple_rule_reports_one_by_one(self, capsys):
        code, payload = run_json(
            capsys, ["integrate", "--rule", "trapezoid", "--m", "3", "--n", "2", "--format", "json"])
        assert code == OK
        assert (payload["inputs"]["m"], payload["inputs"]["n"]) == (1, 1)

    def test_composite_rule_reports_its_partition(self, capsys):
        code, payload = run_json(
            capsys, ["bound", "--rule", "composite-midpoint", "--m", "3", "--n", "2", "--format", "json"])
        assert code == OK
        assert (payload["inputs"]["m"], payload["inputs"]["n"]) == (3, 2)

    def test_simple_weight_reports_one_by_one(self, capsys):
        argv = ["verify-identity", "--weight", "trapezoid", "--m", "3", "--n", "3"]
        code, out, _ = run_main(capsys, argv)
        assert code == OK
        assert out.splitlines()[0] == "weight    : trapezoid (1x1)"
        code, payload = run_json(capsys, [*argv, "--format", "json"])
        assert (payload["inputs"]["m"], payload["inputs"]["n"]) == (1, 1)

    def test_input_key_order(self, capsys):
        _, report = run_json(capsys, ["integrate", "--format", "json"])
        assert list(report["inputs"]) == ["function", "rect", "p", "rule", "m", "n", "resolution", "tol"]
        _, levels = run_json(
            capsys, ["converge", "--rule", "composite-trapezoid", "--levels", "1", "--format", "json"])
        for level in levels:
            assert list(level["inputs"]) == ["function", "rect", "p", "rule", "resolution", "tol", "m", "n"]


class TestFlagChecks:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["converge", "--rule", "composite-trapezoid", "--levels", "-1"], "--levels"),
            (["corpus-report", "--max-n", "0"], "--max-n"),
            (["minimize-norm", "--restarts", "0"], "--restarts"),
        ],
    )
    def test_count_below_its_minimum_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_main(capsys, argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert err.startswith(f"error: {flag} must be at least ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ["integrate", "--function", "sinsin", "--p", "1"],
        ["converge", "--rule", "composite-trapezoid", "--levels", "1"],
        ["verify-identity"],
        ["minimize-norm"],
    ], ids=lambda argv: argv[0])
    def test_meaningless_tol_is_usage_error(self, capsys, argv, value):
        # a NaN tolerance fails every check, an infinite one passes any, and a
        # negative one fails an exact identity
        code, out, err = run_main(capsys, [*argv, f"--tol={value}"])
        assert code == USAGE_ERROR
        assert out == ""
        assert f"argument --tol: must be finite and >= 0, got {value}" in err

    @pytest.mark.parametrize("argv, text", [
        (["integrate", "--p", "0.5"], "exponent must satisfy p >= 1, got 0.5"),
        (["minimize-norm", "--q", "0.5"], "exponent must satisfy p >= 1, got 0.5"),
        (["integrate", "--p", "one"], "cannot parse exponent 'one'"),
    ])
    def test_refused_exponent_says_why(self, capsys, argv, text):
        code, out, err = run_main(capsys, argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert err == f"error: {text}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--rule", "composite-trapezoid", "--m", "2"],
            ["converge", "--rule", "composite-trapezoid", "--n", "2"],
            ["verify-identity", "--p", "2"],
            ["bound", "--tol", "5"],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert "unrecognized arguments" in err


class TestTinyRectangle:
    def test_too_narrow_rectangle_exits_with_usage_error(self):
        code, _, err = invoke(["integrate", "--function", "sinsin", "--rect", "0", "1e-15", "0", "1e-15",
                               "--p", "2", "--rule", "composite-trapezoid", "--m", "4", "--n", "4"])
        assert code == USAGE_ERROR
        assert "interval [0.0, 1e-15] is too narrow for quadrature" in err


class TestMatrix:
    def test_small_matrix_clean(self):
        cases = certificate_matrix(
            function_names=("xy", "expsum"),
            p_values=("1", "inf"),
            ns=(1, 2),
            resolution=96,
        )
        # 2 functions x 2 p x (2 composite rules x 2 partitions + 2 simple rules)
        assert len(cases) == 2 * 2 * (2 * 2 + 2)
        assert all(c.passed for c in cases)

    def test_registry_size_is_at_least_eight(self):
        from certquad import names

        assert len(names()) >= 8
