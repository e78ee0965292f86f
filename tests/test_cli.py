"""CLI behavior: columns, formatting, determinism, exit codes, config handling."""

import contextlib
import errno
import gc
import io
import json
import math
import os
import pathlib
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from kleinstep import cli, dirac, graphene, junction, step
from kleinstep.cli import RunManifest, main, render_csv, render_json
from kleinstep.common import _BAD_CELLS, Convention, SingularityError

from oracles import rt_pair, step_kappa, step_kappa_prime
from test_contracts import run_fresh


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _lines(document):
    """A document's lines with their ends: equal exactly where the documents are, and a failing
    comparison's diff takes seconds, where that of two whole documents may take minutes."""
    return document.splitlines(keepends=True)


def test_step_compare_single_point(capsys):
    code, out, err = run(
        capsys, "step-compare", "--E", "2", "--m", "1", "--V0", "5", "--no-manifest"
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "E,m,V0,kappa,R_paper,T_paper,kappa_prime,R_common,T_common,regime"
    cells = lines[1].split(",")
    k = step_kappa(2, 1, 5)
    kp = step_kappa_prime(2, 1, 5)
    assert cells[3] == format(k, ".9g")
    assert cells[4] == format(rt_pair(k)[0], ".9g")
    assert cells[5] == format(rt_pair(k)[1], ".9g")
    assert cells[6] == format(kp, ".9g")
    assert cells[9] == "klein"
    # the pathology is visible in the emitted row
    assert float(cells[7]) > 1 and float(cells[8]) < 0


def test_determinism_byte_identical(tmp_path, capsys):
    args = ["step-compare", "--E", "1.5:4.5:7", "--m", "1", "--V0", "6,8",
            "--no-manifest", "--output"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(path_a)]) == 0
    assert main(args + [str(path_b)]) == 0
    assert _lines(path_a.read_bytes()) == _lines(path_b.read_bytes())


def test_manifest_comment_lines(capsys):
    code, out, _ = run(capsys, "step-rt", "--E", "2", "--m", "1", "--V0", "5")
    assert code == 0
    lines = out.split("\n")
    assert lines[0].startswith("# kleinstep 0.")
    assert lines[1] == "# command: step-rt"
    assert lines[2].startswith("# parameters: ")
    assert "E=2" in lines[2] and "V0=5" in lines[2]
    assert lines[3].startswith("# timestamp: ")
    assert lines[4].startswith("E,m,V0,")


def test_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "step-compare", "--E", "2", "--m", "1", "--V0", "5",
        "--format", "json", "--no-manifest",
    )
    assert code == 0
    payload = json.loads(out)
    assert "manifest" not in payload
    row = payload["rows"][0]
    # parsed values reproduce the 9-significant-digit print contract exactly
    assert row["kappa"] == float(format(step_kappa(2, 1, 5), ".9g"))
    assert row["regime"] == "klein"
    assert json.loads(json.dumps(payload)) == payload


def test_json_manifest_field(capsys):
    code, out, _ = run(
        capsys, "iv-curve", "--Vb", "0.2", "--V-max", "1e-3", "--n", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "iv-curve"
    assert payload["manifest"]["tool"] == "kleinstep"
    assert len(payload["rows"]) == 2


def test_empty_sweep_header_only(capsys):
    code, out, _ = run(
        capsys, "step-compare", "--E", "", "--m", "1", "--V0", "5", "--no-manifest"
    )
    assert code == 0
    assert out == "E,m,V0,kappa,R_paper,T_paper,kappa_prime,R_common,T_common,regime\n"


EMPTY_SWEEPS = [
    ["step-rt", "--E=", "--m", "1", "--V0", "5"],
    ["step-compare", "--E", "2", "--m=", "--V0", "5"],
    ["spinor-check", "--m", "1", "--eps="],
    ["graphene-angle", "--E", "0.08", "--V0", "0.3", "--theta="],
    ["barrier", "--E", "0.08", "--V0", "0.3", "--D="],
    ["iv-curve", "--Vb="],
    ["iv-curve", "--V="],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", EMPTY_SWEEPS, ids=" ".join)
def test_every_empty_sweep_prints_no_rows(capsys, args, fmt):
    code, out, err = run(capsys, *args, "--no-manifest", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out) == {"rows": []}
    else:
        blocks = cli._table(cli.parse_args(args))
        assert out == ",".join(blocks[0]) + "\n"


SWEEP_E = ["step-compare", "--m", "1", "--V0", "5", "--E"]


@pytest.mark.parametrize("argv,name,values", [
    (SWEEP_E + ["2"], "E", [2.0]), (SWEEP_E + ["0.5, 1,-3e-300"], "E", [0.5, 1.0, -3e-300]),
    (SWEEP_E + ["1:2:5"], "E", [1.0, 1.25, 1.5, 1.75, 2.0]), (SWEEP_E + [""], "E", []),
    (SWEEP_E + [" "], "E", []), (["iv-curve"], "Vb", [0.1, 0.2, 0.3]),
], ids=["value", "list", "range", "empty", "blank", "default"])
def test_swept_values_parse_to_float64_arrays(argv, name, values):
    value = cli.parse_args(argv).params[name]
    assert type(value) is np.ndarray and value.dtype == np.float64 and value.tolist() == values


@pytest.mark.parametrize("text", ["1:3:20001", ",".join(f"{i}.5" for i in range(1, 20002))],
                         ids=["range", "list"])
def test_parsed_sweep_holds_no_float_per_point(text):
    # a 20,001-cell float64 array is 160 kB; a Python float per point would hold 480 kB more,
    # and a list split into one Python string per token would peak above 1.4 MB while parsed
    argv = ["step-rt", "--E", text, "--m", "0.5", "--V0", "5"]
    cli.parse_args(argv)  # first-call caches are not the sweep's
    tracemalloc.start()
    try:
        request = cli.parse_args(argv)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert request.params["E"].size == 20001
    assert held < 250_000
    assert peak < 400_000


def _by_token(text):
    return [cli._float_scalar(token) for token in text.split(",")]


def _outcome(parse, text):
    """The bits of each value parse(text) gives, or its error text."""
    try:
        return [struct.pack("<d", value) for value in parse(text)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example(xs=[-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.0])
def test_listed_floats_parse_to_their_bits(xs):
    assert _outcome(cli._values, ",".join(map(repr, xs))) == _outcome(list, xs)


@pytest.mark.parametrize("text", [
    "1,,2", "2,", "1,nan", "1e400", "1_0", "0x10", "\u0661", "1, 2",
    # numpy's parser reads a blank token between commas as -1.0
    "1, ,2", "1,\t,2,-1",
])
def test_list_parses_as_token_by_token(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(cli._values, text)
    assert got == _outcome(_by_token, text)


@pytest.mark.parametrize("text", ["1_0", "0x10", "1,,2"])
def test_older_numpy_partial_read_goes_token_by_token(text, monkeypatch):
    # numpy before 2.4 warns where its parser stops early and returns the values read so far
    def fromstring(string, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data; "
                      "this will raise a ValueError in the future.", DeprecationWarning)
        return np.array([1.0])

    want = _outcome(_by_token, text)
    monkeypatch.setattr(np, "fromstring", fromstring)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(cli._values, text) == want
    assert not caught


def _list_token():
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("%.9g".__mod__),
        st.sampled_from(["", "-1", "-1.0", "-0", ".5", "5.", "+3", "1e", "1_0", "0x10", "inf",
                         "nan", "1e400", "1e-400", "1.5.5", "--1", "\u0661", "\uff11"]),
        st.text("0123456789.eE+-_", max_size=5))
    space = st.sampled_from(["", "", "", " ", "\t", "\n", "\x0b", "\x0c", "\r", "\xa0"])
    return st.tuples(space, number, space).map("".join)


@settings(max_examples=500, deadline=None)
@given(tokens=st.lists(_list_token(), min_size=1, max_size=6))
def test_any_list_parses_as_token_by_token(tokens):
    # the values or the error, bit for bit, of reading the stripped list token by token
    text = ",".join(tokens).strip()
    if not text:
        return
    assert _outcome(cli._values, text) == _outcome(_by_token, text)


class TestUsageErrors:
    def test_missing_required(self, capsys):
        code, _, err = run(capsys, "step-compare", "--E", "2", "--m", "1")
        assert code == 2
        assert "--V0" in err

    def test_bad_range_count(self, capsys):
        code, _, err = run(capsys, "step-compare", "--E", "1:2:1", "--m", "1", "--V0", "5")
        assert code == 2
        assert "count" in err

    def test_bad_range_order(self, capsys):
        code, _, err = run(capsys, "step-compare", "--E", "5:1:3", "--m", "1", "--V0", "5")
        assert code == 2

    def test_unknown_flag(self, capsys):
        assert main(["step-rt", "--bogus", "1"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_domain_error_maps_to_usage(self, capsys):
        # E <= m has no propagating incident wave
        code, _, err = run(capsys, "step-rt", "--E", "0.5", "--m", "1", "--V0", "5")
        assert code == 2
        assert "E > m" in err

    @pytest.mark.parametrize("args,value", [
        (["graphene-angle", "--E", "0.08", "--V0", "nan", "--theta", "10"], "nan"),
        (["graphene-angle", "--E", "0.08", "--V0", "0.3", "--theta=-inf"], "-inf"),
        (["iv-curve", "--Vb", "nan"], "nan"),
        (["barrier", "--E", "0.08", "--V0", "0.3", "--D", "inf"], "inf"),
        (["barrier", "--E", "0.08", "--V0", "0.3", "--D", "1:inf:3"], "inf"),
        (["step-rt", "--E", "2", "--m", "1", "--V0", "nan"], "nan"),
    ])
    def test_non_finite_value_is_usage_error(self, capsys, args, value):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err == f"kleinstep: error: expected a finite number, got '{value}'\n"

    def test_zero_spinor_is_usage_error(self, capsys):
        # massless rest frame eps = k = m = 0 has no nonzero spinor
        code, out, err = run(capsys, "spinor-check", "--m", "0", "--eps", "0", "--no-manifest")
        assert (code, out) == (2, "")
        assert err == "kleinstep: error: zero spinor\n"

    def test_negative_mass_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spinor-check", "--m=-1", "--eps", "2", "--no-manifest")
        assert (code, out) == (2, "")
        assert err == "kleinstep: error: mass must be nonnegative\n"

    @pytest.mark.parametrize("args,config,message", [
        (["step-rt", "--E", "2", "--m", "abc", "--V0", "5"], None, "expected a number, got 'abc'"),
        (["iv-curve", "--n", "2.5"], None, "expected an integer, got '2.5'"),
        (["step-rt", "--E", "1:2", "--m", "1", "--V0", "5"], None,
         "range must be min:max:count, got '1:2'"),
        (["step-rt", "--E", "2", "--m", "1", "--V0", "5", "--convention", "bogus"], None,
         "expected one of ('paper', 'common'), got 'bogus'"),
        (["step-rt", "--E=-1e308:1e308:3", "--m", "1", "--V0", "5"], None,
         "range span max - min overflows, got -1e+308 to 1e+308"),
        (["step-rt", "--E", "2", "--m", "1", "--V0", "5"], "allow-singular = maybe\n",
         "expected a boolean, got 'maybe'"),
        (["step-rt", "--E", "2", "--m", "1", "--V0", "5"], "m = 1\nV0 5\n",
         "{config}:2: expected 'key = value'"),
        (["step-rt", "--E", "2", "--m", "1", "--V0", "5"], "# run\n\nconventon = common\n",
         "{config}:3: unknown key 'conventon' for step-rt"),
    ], ids=["non-number", "non-integer", "two-part-range", "choice", "span-overflow",
            "config-boolean", "config-line", "config-unknown-key"])
    def test_converter_errors(self, capsys, tmp_path, args, config, message):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            args = [*args, "--config", str(path)]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err == f"kleinstep: error: {message.format(config=tmp_path / 'run.cfg')}\n"

    @pytest.mark.parametrize("args,message", [
        (["angular-current", "--theta-max=-5"], "--theta-max must be positive, got -5.0"),
        (["angular-current", "--theta-max", "0"], "--theta-max must be positive, got 0.0"),
        (["angular-current", "--n", "1"], "--n must be >= 2, got 1"),
        (["iv-curve", "--n", "1"], "--n must be >= 2, got 1"),
        (["iv-curve", "--V-min", "1", "--V-max", "0"], "--V-min must be below --V-max"),
        (["iv-curve", "--V-min", "1", "--V-max", "1"], "--V-min must be below --V-max"),
        (["angular-current", "--theta-max", "95"],
         "--theta-max must be below 90 degrees, got 95.0"),
        (["angular-current", "--theta-max", "1e308"],
         "--theta-max must be below 90 degrees, got 1e+308"),
        (["iv-curve", "--V-min=-1e308", "--V-max", "1e308"],
         "--V-max - --V-min overflows, got -1e+308 to 1e+308"),
        (["graphene-angle", "--E", "0.1", "--V0", "0.3", "--theta", "90"],
         "--theta must lie in (-90, 90) degrees, got 90.0"),
        (["graphene-angle", "--E", "0.1", "--V0", "0.3", "--theta=10,-95,100"],
         "--theta must lie in (-90, 90) degrees, got -95.0"),
        (["barrier", "--E", "0.1", "--V0", "0.3", "--D", "10", "--theta", "90"],
         "--theta must lie in (-90, 90) degrees, got 90.0"),
        (["barrier", "--E", "0.1", "--V0", "0.3", "--D", "10", "--theta=-1e308"],
         "--theta must lie in (-90, 90) degrees, got -1e+308"),
        # the angle is checked where the sweep is set up, before the kernels check E
        (["graphene-angle", "--E=-0.1", "--V0", "0.3", "--theta", "90"],
         "--theta must lie in (-90, 90) degrees, got 90.0"),
        (["angular-current", "--V0", "0.02", "--n", "5"],
         "--theta-max must be below the critical angle 49.292559336615895 degrees, got 85.0"),
    ], ids=["theta-max-negative", "theta-max-zero", "angular-current-n", "iv-curve-n",
            "V-min-above-V-max", "V-min-at-V-max", "theta-max-above-90", "theta-max-overflow",
            "V-span-overflow", "graphene-angle-theta-90", "graphene-angle-first-bad-theta",
            "barrier-theta-90", "barrier-theta-overflow", "theta-before-energy",
            "theta-max-beyond-critical-angle"])
    def test_grid_errors_name_the_flag(self, capsys, args, message):
        # these grids are built from flags, not from a min:max:count range the user gave
        code, out, err = run(capsys, *args, "--no-manifest")
        assert (code, out) == (2, "")
        assert err == f"kleinstep: error: {message}\n"

    @pytest.mark.parametrize("text,value", [
        (text, value) for value, texts in ((True, ("1", "true", "Yes", "ON")),
                                           (False, ("0", "false", "No", "OFF")))
        for text in texts])
    def test_config_booleans(self, tmp_path, text, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"allow-singular = {text}\nno-manifest = {text}\n")
        request = cli.parse_args(["step-rt", "--E", "2", "--m", "1", "--V0", "5",
                                  "--config", str(path)])
        assert (request.allow_singular, request.manifest is None) == (value, value)

    def test_both_energy_and_wavelength(self, capsys):
        code, _, err = run(
            capsys, "graphene-angle", "--E", "0.08", "--lambdaF", "50",
            "--V0", "0.3", "--theta", "0",
        )
        assert code == 2
        assert "exactly one" in err


class TestSingularities:
    def test_klein_normal_incidence_fails_without_flag(self, capsys):
        code, out, err = run(
            capsys, "graphene-angle", "--lambdaF", "50", "--V0", "0.3",
            "--theta", "0,45", "--no-manifest",
        )
        assert code == 1
        assert "singular denominator" in err
        assert "s_I exp(-i theta_I) + s_II exp(i theta_II)" in err

    def test_allow_singular_emits_inf(self, capsys):
        code, out, _ = run(
            capsys, "graphene-angle", "--lambdaF", "50", "--V0", "0.3",
            "--theta", "0,45", "--no-manifest", "--allow-singular",
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert rows[0].split(",")[5] == "inf"  # T_common at normal incidence
        assert float(rows[1].split(",")[4]) == pytest.approx(0.727925157, rel=1e-9)

    @pytest.mark.parametrize("args,singular_row_end", [
        pytest.param(["step-compare", "--E", "2", "--m", "0", "--V0", "5"],
                     ",-1,inf,-inf,klein", id="step-compare"),
        pytest.param(["step-rt", "--E", "2", "--m", "0", "--V0", "5", "--convention", "common"],
                     ",klein,-1,nan,0,nan,0,inf,-inf", id="step-rt"),
        # kappa' is within 4 eps of -1 at m = 3e-17 though the matching determinant is
        # not 0: that first cell is singular too, so the sweep fails there
        pytest.param(["step-compare", "--E", "0.5", "--m", "3e-17,0", "--V0", "0.9"],
                     ",-1,inf,-inf,klein\n0.5,0,0.9,1,0,1,-1,inf,-inf,klein", id="near-massless"),
    ])
    def test_massless_common_step(self, capsys, args, singular_row_end):
        code, _, err = run(capsys, *args, "--no-manifest")
        assert code == 1
        assert "kappa_prime" in err
        code2, out, err2 = run(capsys, *args, "--no-manifest", "--allow-singular")
        assert (code2, err2) == (0, "")
        assert out.endswith(singular_row_end + "\n")

    @pytest.mark.parametrize("args", [
        # graphene wavevectors beyond float range: k_F = E / hbar v_F
        ["graphene-angle", "--E", "1.7e308", "--V0", "0.3", "--theta", "10"],
        ["barrier", "--E", "1.7e308", "--V0", "0.3", "--D", "10"],
        ["angular-current", "--lambdaF", "3e-308", "--n", "3"],
        ["spinor-check", "--m", "1e200", "--eps", "2e200"],
    ], ids=lambda args: args[0])
    def test_overflow_is_numerical_failure(self, capsys, args):
        # finite input whose results overflow: one line and exit 1, no warning or traceback
        code, out, err = run(capsys, *args, "--no-manifest")
        assert (code, out) == (1, "")
        assert err.startswith("kleinstep: numerical failure: overflow encountered in ")
        assert err.count("\n") == 1

    def test_wavelength_overflow_is_numerical_failure(self, capsys):
        # E = hbar v_F 2 pi / lambda_F is beyond float range: not "E must be finite, got inf"
        code, out, err = run(capsys, "graphene-angle", "--lambdaF", "1e-308", "--V0", "0.3",
                             "--theta", "10", "--no-manifest")
        assert (code, out) == (1, "")
        assert err == "kleinstep: numerical failure: overflow encountered in divide\n"

    def test_sweep_too_large_for_memory(self, capsys):
        # 10^15 float64 cells are 7 PiB, past any address space: the range cannot be allocated
        code, out, err = run(capsys, "step-rt", "--E", "1.5:9:1000000000000000", "--m", "1",
                             "--V0", "5")
        assert (code, out) == (1, "")
        assert err.startswith("kleinstep: out of memory: Unable to allocate ")
        assert err.count("\n") == 1

    def test_graphene_rows_do_not_depend_on_the_energy_scale(self, capsys):
        # at 8e-170 eV, (E/hbar v_F)^2 - k_y^2 underflows unless the scale is removed first
        rows = []
        for energy, height in (("0.08", "0.3"), ("8e-162", "3e-161"), ("8e-170", "3e-169")):
            code, out, err = run(capsys, "graphene-angle", "--E", energy, "--V0", height,
                                 "--theta", "10,40", "--no-manifest")
            assert (code, err) == (0, "")
            rows.append([line.split(",", 3)[3] for line in out.strip().split("\n")])
        assert rows[0][1] == "3.62033867,0.985895062,69.8971554"
        assert rows[1] == rows[0] and rows[2] == rows[0]
        code, out, err = run(capsys, "barrier", "--E", "8e-170", "--V0", "3e-169", "--D", "10",
                             "--theta", "10", "--no-manifest")
        assert (code, err) == (0, "")

    def test_step_rt_at_huge_energy_solves(self, capsys):
        # the step kernels remove the energy scale first, so E^2 never forms at 1e200
        code, out, err = run(capsys, "step-rt", "--E", "1e200", "--m", "1", "--V0", "5",
                             "--no-manifest")
        assert (code, err) == (0, "")
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["regime"], cells["R"], cells["T"]) == ("above_barrier", "0", "1")

    def test_step_rt_rows_do_not_depend_on_the_energy_scale(self, capsys):
        # (1e-200, 2e-200; 5e-201; 1e-199) is (1, 2; 0.5; 10) times 1e-200
        code, tiny, err = run(capsys, "step-rt", "--E", "1e-200,2e-200", "--m", "5e-201",
                              "--V0", "1e-199", "--no-manifest")
        assert (code, err) == (0, "")
        code, unit, _ = run(capsys, "step-rt", "--E", "1,2", "--m", "0.5", "--V0", "10",
                            "--no-manifest")
        assert code == 0

        def from_column_4(text):
            return [line.split(",", 3)[3] for line in text.strip().split("\n")]

        assert from_column_4(tiny) == from_column_4(unit)

    def test_deep_step_row_is_exact(self, capsys):
        # V0 / E = 5e199: the row of a 60-digit matching, no nan and no warning
        code, out, err = run(capsys, "step-rt", "--E", "2", "--m", "1", "--V0", "1e200",
                             "--no-manifest")
        assert (code, err) == (0, "")
        assert out.strip().split("\n")[1] == ("2,1,1e+200,paper,klein,0.577350269,0.267949192,"
                                              "-0,-1.26794919e-200,-0,0.0717967697,0.92820323")

    def test_deep_massless_common_step_is_singular(self, capsys):
        code, out, err = run(capsys, "step-rt", "--E", "2", "--m", "0", "--V0", "1e200",
                             "--convention", "common", "--no-manifest")
        assert (code, out, err) == (1, "", SINGULAR_STEP_ERR)


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 1\nV0 = 5  # step height\n# full-line comment\n")
    code, out, _ = run(
        capsys, "step-compare", "--E", "2", "--config", str(config), "--no-manifest"
    )
    assert code == 0
    assert out.strip().split("\n")[1].startswith("2,1,5,")


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 1\nV0 = 5\n")
    code, out, _ = run(
        capsys, "step-compare", "--E", "2", "--V0", "6", "--config", str(config),
        "--no-manifest",
    )
    assert code == 0
    assert out.strip().split("\n")[1].startswith("2,1,6,")


def test_config_file_missing(capsys):
    code, _, err = run(
        capsys, "step-compare", "--E", "2", "--m", "1", "--V0", "5",
        "--config", "/nonexistent/path.cfg",
    )
    assert code == 2
    assert "config" in err


def test_unwritable_output(capsys, tmp_path):
    code, _, err = run(
        capsys, "step-rt", "--E", "2", "--m", "1", "--V0", "5",
        "--output", str(tmp_path / "missing_dir" / "out.csv"),
    )
    assert code == 1
    assert "cannot write" in err


# the console entry point, whose stdout is the process's own
CONSOLE = "import sys\nfrom kleinstep.cli import main\nsys.exit(main())"
ONE_ROW = ["step-rt", "--E", "2", "--m", "1", "--V0", "5"]
MULTI_SLICE = {
    "json": ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-80:80:3001",
             "--allow-singular", "--format", "json", "--no-manifest"],
    "csv": ["step-rt", "--E", "1.5:9:3001", "--m", "1", "--V0", "5", "--no-manifest"],
    # T and relative_current are one array
    "angular-current": ["angular-current", "--n", "10001", "--format", "json", "--no-manifest"],
}


# warnings are errors, and dev mode reports unclosed files and errors raised at exit
DEV_MODE = ("-X", "dev", "-W", "error")


def assert_stdout_is_output(path, argv, options=()):
    """A console launch of argv writes the same bytes to stdout as to --output=path."""
    piped = run_fresh(CONSOLE, *argv, text=False, options=options)
    written = run_fresh(CONSOLE, *argv, f"--output={path}", text=False, options=options)
    assert (piped.returncode, piped.stderr, written.returncode, written.stdout) == (0, b"", 0, b"")
    assert _lines(piped.stdout) == _lines(path.read_bytes())
    assert piped.stdout.count(b"\n") > 2 * cli._RENDER_SLICE


@pytest.mark.parametrize("sweep", list(MULTI_SLICE))
def test_stdout_and_output_write_the_same_bytes(tmp_path, sweep):
    assert_stdout_is_output(tmp_path / "out", MULTI_SLICE[sweep])


@pytest.mark.parametrize("sweep", list(MULTI_SLICE))
def test_frozen_launch_loses_no_exit_time_work(tmp_path, sweep):
    # the console entry freezes its start-up heap, which finalization then skips:
    # stdout is still flushed whole and --output closed, with nothing said on stderr
    assert_stdout_is_output(tmp_path / "out", MULTI_SLICE[sweep], DEV_MODE)


FREEZE_COUNT_AFTER_MAIN = """import contextlib, gc, io
from kleinstep.cli import main
assert gc.get_freeze_count() == 0, "importing kleinstep.cli froze the heap"
with contextlib.redirect_stdout(io.StringIO()):
    assert main() == 0
print(gc.get_freeze_count())
"""


def test_console_entry_freezes_the_start_up_heap():
    result = run_fresh(FREEZE_COUNT_AFTER_MAIN, *ONE_ROW)
    assert (result.returncode, result.stderr) == (0, "")
    assert int(result.stdout) > 0


def test_in_process_main_leaves_the_collector_alone(capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run(capsys, *ONE_ROW)[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [ONE_ROW, MULTI_SLICE["csv"]], ids=["one-row", "multi-slice"])
@pytest.mark.parametrize("to_stdout", [True, False], ids=["stdout", "output"])
def test_full_device_is_one_write_error(argv, to_stdout):
    # a short output fails only at the final flush, a multi-slice one inside the writes
    with open("/dev/full", "wb") as full:
        if to_stdout:
            result = run_fresh(CONSOLE, *argv, stdout=full)
        else:
            result = run_fresh(CONSOLE, *argv, "--output=/dev/full")
    name = "<stdout>" if to_stdout else "/dev/full"
    assert result.returncode == 1
    assert result.stderr.startswith(f"kleinstep: cannot write {name}: [Errno {errno.ENOSPC}]")
    assert result.stderr.count("\n") == 1


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="needs /proc/self/fd and /dev/full")
def test_failed_stdout_writes_leak_no_descriptor(capsys, monkeypatch):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        with open("/dev/full", "w") as full, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", full)
            assert main(ONE_ROW) == 1
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err.count("kleinstep: cannot write <stdout>: ") == 2


@pytest.mark.parametrize("argv", [ONE_ROW, MULTI_SLICE["json"]], ids=["one-row", "multi-slice"])
def test_broken_pipe_is_one_write_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_fresh(CONSOLE, *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr.startswith("kleinstep: cannot write <stdout>: ")
    assert result.stderr.count("\n") == 1


def test_angular_current_defaults(capsys):
    code, out, _ = run(capsys, "angular-current", "--no-manifest")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta_deg,T,relative_current"
    assert len(lines) == 1 + 171
    center = lines[1 + 85].split(",")
    assert center[0] == "0" and center[1] == "1" and center[2] == "1"
    # even profile: first and last rows match apart from the angle sign
    assert lines[1].split(",")[1:] == lines[-1].split(",")[1:]


def test_barrier_command_shows_equivalence(capsys):
    code, out, _ = run(
        capsys, "barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "5,25,80",
        "--theta", "30", "--no-manifest",
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[4] == cells[5]  # T_paper and T_common agree to all printed digits


def test_spinor_check_command(capsys):
    code, out, _ = run(
        capsys, "spinor-check", "--m", "1", "--eps=-3,0.5,2", "--no-manifest"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,k_re,k_im,m,residual2,residual4,current"
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 1e-12
    evanescent = lines[2].split(",")
    assert float(evanescent[2]) > 0  # imaginary wavevector
    assert evanescent[5] == "nan"


def test_stdout_matches_file_output(tmp_path, capsys):
    args = ["angular-current", "--n", "5", "--theta-max", "60", "--no-manifest"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    path = tmp_path / "out.csv"
    assert main(args + ["--output", str(path)]) == 0
    assert _lines(path.read_text()) == _lines(out)


# ------------------------------------------------------------- argument reader

# flag values: blank, '-'-led, holding '=' or ':', a flag
FLAG_VALUES = ["2", "", " ", "-5", "a=b", "1:2:3", "--E"]
ODD_TOKENS = ["bogus", "--bogus", "-h", "--help", "--", "-", "x", "--=2", "--D", "--eps"]


@st.composite
def reader_argv(draw):
    """A command and its flags, some repeated, each with a joined or separate value; then
    perhaps one token put in or swapped for an odd one: stray, help, another command's
    flag, an abbreviation or a switch's explicit value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for param in draw(st.lists(st.sampled_from(cli._COMMANDS[command].params
                                               + cli._COMMON_PARAMS), max_size=6)):
        flag, value = f"--{param.name}", draw(st.sampled_from(FLAG_VALUES))
        argv += ([flag] if param.convert is cli._bool
                 else draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    if draw(st.booleans()):
        index = draw(st.integers(0, len(argv) - 1))
        token = argv[index].split("=")[0]
        odd = draw(st.sampled_from([*ODD_TOKENS, token[:-1], token[:4], f"{token}=1"]))
        argv[index:index + draw(st.integers(0, 1))] = [odd]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=reader_argv())
@example(argv=["step-rt", "--E", "2", "--E=3", "--E", "4"])
@example(argv=["step-rt", "--no-manifest=1"])
@example(argv=["step-rt", "--co", "common"])
@example(argv=["iv-curve", "--V-m=1"])
@example(argv=["barrier", "--D", "-5"])
@example(argv=["barrier", "--D"])
@example(argv=["barrier", "--", "--D", "2"])
@example(argv=["barrier", "--D", "2", "x"])
def test_read_flags_gives_argparse_values(argv):
    # whenever the reader takes argv, argparse takes it too and reads the same values
    flags = cli._read_flags(argv)
    if flags is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}, which the reader takes")
    assert flags.keys() <= namespace.keys()
    assert {dest: flags.get(dest) for dest in namespace} == namespace


def test_abbreviated_flag_reads_as_its_whole_name(capsys):
    whole = ["step-rt", "--E", "2,7", "--m", "1", "--V0", "5", "--convention", "common"]
    abbreviated = [*whole[:-2], "--conv", "common"]
    assert cli._read_flags(abbreviated) is None  # argparse resolves the prefix
    code, out, err = run(capsys, *abbreviated, "--no-manifest")
    assert (code, out.count(",common,"), err) == (0, 2, "")
    assert run(capsys, *whole, "--no-manifest") == (code, out, err)


# ------------------------------------------------------------- rendering


def _reference_json(columns, table, manifest):
    """The renderer's contract: json.dumps of the payload, floats rounded to 9 digits."""
    def cell(value):
        if isinstance(value, float) and math.isfinite(value):
            return float(format(value, ".9g"))
        return value

    cells = [list(np.asarray(table[name], dtype=object)) for name in columns]
    payload = {"manifest": manifest.as_dict()} if manifest else {}
    payload["rows"] = [{name: cell(value) for name, value in zip(columns, row)}
                       for row in zip(*cells)]
    return json.dumps(payload, indent=2) + "\n"


def _joined(blocks):
    """A sweep's block tables as one table: each column's cells in sweep order."""
    return {name: np.concatenate([np.asarray(block[name], dtype=object) for block in blocks])
            for name in blocks[0]}


SPECIAL_TABLE = {
    "x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0 / 3.0, 2.5e-320, -7.0]),
    "label": ["klein", "a \"quoted\" name", "tab\there", "unicode \u00e9", "", "x", "y", "z"],
    "y": [1e300, -1e-300, 123456789.5, 0.1, math.nan, 1.0, -2.0, 3.0],
}
MANIFEST = RunManifest("0.1.0", "step-rt", {"E": "1,2.5", "m": "1.0", "convention": "paper",
                                            "lambdaF": None, "n": "5"},
                       timestamp="2026-01-01T00:00:00+00:00")


@pytest.mark.parametrize("text", ["1:2:5", "", ",".join(f"{i}.5" for i in range(1, 2501))],
                         ids=["values", "empty", "several-slices"])
def test_manifest_formats_an_array_as_its_list(text):
    # a swept flag is recorded as its text, not one text per value, and a default as its text
    manifest = cli.parse_args(["step-rt", "--E", text, "--m", "1", "--V0", "5.0"]).manifest
    assert manifest.parameters == {"E": text, "m": "1", "V0": "5.0", "convention": "paper"}
    assert manifest.comment_lines()[2] == f"# parameters: E={text} V0=5.0 convention=paper m=1"
    defaults = cli.parse_args(["angular-current"]).manifest.parameters
    assert (defaults["hbar_vF"], defaults["n"]) == ("0.6578", "171")


def _reject(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


@pytest.mark.parametrize("given", ["flag", "config"])
def test_manifest_text_holds_no_whitespace(capsys, tmp_path, given):
    # a value's inner whitespace and newlines would break a comment line or a JSON string
    argv = ["graphene-angle", "--E", "0.3", "--V0", "0.1"]
    if given == "flag":
        argv += ["--theta", " 10,\n20"]
    else:
        path = tmp_path / "run.cfg"
        path.write_text("theta = 10, 20\n")
        argv += ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    lines = out.split("\n")
    assert (code, err) == (0, "")
    assert [line.startswith("#") for line in lines[:5]] == [True] * 4 + [False]
    assert lines[2] == "# parameters: E=0.3 V0=0.1 hbar_vF=0.6578 lambdaF=None theta=10,20"
    code, out, err = run(capsys, *argv, "--format", "json")
    parameters = json.loads(out, parse_constant=_reject)["manifest"]["parameters"]
    assert (code, err, parameters["theta"]) == (0, "", "10,20")
    assert all(value is None or type(value) is str for value in parameters.values())


@pytest.mark.parametrize("manifest", [None, MANIFEST], ids=["no-manifest", "manifest"])
def test_render_json_is_json_dumps(manifest):
    columns = ["x", "label", "y"]
    assert _lines("".join(render_json(columns, [SPECIAL_TABLE], manifest))) == _lines(
        _reference_json(columns, SPECIAL_TABLE, manifest))


@pytest.mark.parametrize("manifest", [None, MANIFEST], ids=["no-manifest", "manifest"])
def test_render_json_empty_sweep(manifest):
    columns = ["E", "regime"]
    table = {"E": np.array([]), "regime": []}
    assert _lines("".join(render_json(columns, [table], manifest))) == _lines(
        _reference_json(columns, table, manifest))


def test_render_json_without_float_columns():
    table = {"label": ["klein", "a \"quoted\" name", "x"], "i": [1, 2, 3]}
    assert _lines("".join(render_json(["label", "i"], [table], None))) == _lines(
        _reference_json(["label", "i"], table, None))


def test_renderers_across_slices():
    # a head, one piece per slice of at most _RENDER_SLICE rows, a trailer: memory holds a slice
    count = 2 * cli._RENDER_SLICE + 7
    values = np.random.default_rng(5).standard_normal(count) * 10.0 ** (np.arange(count) % 40 - 20)
    table = {"v": values, "i": list(range(count))}
    json_pieces = list(render_json(["v", "i"], [table], None))
    csv_pieces = list(render_csv(["v", "i"], [table], None))
    for pieces, row_mark in ((json_pieces, "\n    {\n"), (csv_pieces, "\n")):
        assert len(pieces) <= 3 + 2
        assert max(piece.count(row_mark) for piece in pieces) == cli._RENDER_SLICE
    assert _lines("".join(json_pieces)) == _lines(_reference_json(["v", "i"], table, None))
    lines = "".join(csv_pieces).split("\n")
    assert lines[0] == "v,i" and lines[-1] == "" and len(lines) == count + 2
    assert lines[1:-1] == [f"{format(v, '.9g')},{i}" for i, v in enumerate(values.tolist())]


ONE_VALUE_CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 1e16, 123456789012.0, 5e-324,
                   0.1]


@pytest.mark.parametrize("count", [cli._RENDER_SLICE + 1, 300], ids=["one-row-tail", "300"])
@pytest.mark.parametrize("with_label", [True, False], ids=["label", "floats-only"])
def test_renderers_write_one_value_slices(count, with_label):
    # each column holds one value down the first slice and, at 300 rows, varies in the
    # next; the last float column mixes 0.0 and -0.0, which are equal but print differently
    head, tail = cli._RENDER_SLICE, count - cli._RENDER_SLICE
    table = {f"c{i} %d": np.array([value] * head + [value, 2.5] * tail)[:count]
             for i, value in enumerate(ONE_VALUE_CELLS)}
    table["zeros"] = np.resize([0.0, -0.0, 0.0], count)
    if with_label:
        table["label"] = ["klein"] * count
    columns = list(table)
    # compared line by line: a failure's diff of two whole documents takes minutes
    assert "".join(render_json(columns, [table], None)).split("\n") == _reference_json(
        columns, table, None).split("\n")
    rows = zip(*(np.asarray(table[name], dtype=object).tolist() for name in columns))
    lines = [",".join(format(cell, ".9g") if isinstance(cell, float) else cell for cell in row)
             for row in rows]
    assert "".join(render_csv(columns, [table], None)).split("\n") == [
        ",".join(columns), *lines, ""]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_failing_past_its_first_block_writes_nothing(capsys, tmp_path, fmt):
    # theta = 0, a singular cell, is cell index 2,000 of 4,001: in block 4 of 8, after three
    # blocks are solved; every block is solved before any output is opened
    argv = ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-85:85:4001", "--format", fmt]
    assert _block_of(2000, 4001) == 3 and _block_of(4000, 4001) == 7
    new, existing = tmp_path / "new.out", tmp_path / "existing.out"
    existing.write_bytes(b"an earlier launch's output\n")
    for output in ([], [f"--output={new}"], ["--output", str(existing)]):
        code, out, err = run(capsys, *argv, *output)
        assert (code, out) == (1, "") and err.startswith("kleinstep: numerical failure: ")
    assert not new.exists()
    assert existing.read_bytes() == b"an earlier launch's output\n"


def test_emit_holds_one_slice_of_a_long_sweep(tmp_path):
    # emit holds about one slice of text at a time, never the whole document
    path = tmp_path / "angles.json"
    request = cli.parse_args(["graphene-angle", "--E", "0.3", "--V0", "0.42",
                              "--theta=-80:80:12801", "--allow-singular", "--format", "json",
                              "--no-manifest", "--output", str(path)])
    blocks = cli._table(request)
    tracemalloc.start()
    try:
        assert cli.emit(request, blocks) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 256-row slice's floats, cells, text and encoded bytes: about 210 kB; 1,024 rows 820 kB
    assert path.stat().st_size > 2_000_000 and peak < 300_000


def test_emit_drops_the_manifest_text_before_the_rows(tmp_path):
    # the manifest records --theta as its 12-character text, not the 20,001 angles (~180 kB
    # as one text per angle), so it costs the document a few hundred bytes
    argv = ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-80:80:20001",
            "--allow-singular", "--format", "json"]
    paths = [tmp_path / "manifest.json", tmp_path / "no-manifest.json"]
    peaks = []
    for options, path in zip(([], ["--no-manifest"]), paths):
        request = cli.parse_args(argv + options + ["--output", str(path)])
        blocks = cli._table(request)
        assert cli.emit(request, blocks) == 0  # first-call caches are not the document's
        tracemalloc.start()
        try:
            assert cli.emit(request, blocks) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    with_manifest, without = peaks
    assert with_manifest < without + 8_000
    # the manifest is strict JSON; the rows hold bare NaN and Infinity cells
    text = paths[0].read_text(encoding="utf-8")
    head = json.loads(text[:text.index(',\n  "rows": [')] + "\n}", parse_constant=_reject)
    assert head["manifest"]["parameters"]["theta"] == "-80:80:20001"
    assert 0 < paths[0].stat().st_size - paths[1].stat().st_size < 1024


def _table_bytes(blocks: list) -> int:
    return sum(column.nbytes if isinstance(column, np.ndarray) else sys.getsizeof(column)
               for block in blocks for column in block.values())


@pytest.mark.parametrize("argv", [
    ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-80:80:200001", "--allow-singular"],
    ["step-rt", "--E", "1.5:9:200001", "--m", "1", "--V0", "5"],
], ids=lambda argv: argv[0])
def test_solve_holds_its_table_and_one_block(argv):
    # a 512-cell block's kernel temporaries take under 0.2 MB (0.4-0.7 MB at 2,048 cells);
    # the whole sweep's take 20-40 MB
    request = cli.parse_args(argv)
    cli._table(request)  # first-call caches and imports are not the sweep's
    tracemalloc.start()
    try:
        blocks = cli._table(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {sum(len(block[name]) for block in blocks) for name in blocks[0]} == {200_001}
    assert peak < _table_bytes(blocks) + 2_000_000


@pytest.mark.parametrize("argv", [
    ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-80:80:200001"],  # theta = 0 midway
    ["step-rt", "--E", "1.5:9:200001", "--m", "1e-17", "--V0", "5", "--convention", "common"],
], ids=lambda argv: argv[0])
def test_failing_sweep_holds_its_table_and_one_block(argv):
    # a sweep that fails at its singular cells holds no more than it would to succeed:
    # its table and one block, with no cell solved a second time
    own = _table_bytes(cli._table(cli.parse_args(argv + ["--allow-singular"])))
    request = cli.parse_args(argv)
    tracemalloc.start()
    try:
        with pytest.raises(SingularityError):
            cli._table(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < own + 2_000_000


TINY = np.finfo(float).tiny
FLOAT_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0 + 1e-9, 1.0 - 1e-9]),
    st.floats(-TINY, TINY),  # subnormals
    st.integers(-10**17, 10**17).map(float),
    # a tie at the 9th significant digit, as near as a double gets
    st.builds(lambda digits, exponent: float(f"{digits}5e{exponent}"),
              st.integers(10**8, 10**9 - 1), st.integers(-330, 300)),
    st.floats(1.0 - 2e-9, 1.0 + 2e-9),
    st.floats(),
)


@given(st.lists(FLOAT_CELLS, min_size=1, max_size=30),
       st.lists(FLOAT_CELLS, min_size=1, max_size=7),
       st.lists(st.text(max_size=4), min_size=1, max_size=5),
       st.integers(1, 2 * cli._RENDER_SLICE + 9))
# no explain phase: it reruns these 2k-row examples for minutes after a failure; and one
# failure shrunk, not the JSON and the CSV one apart, which took up to a minute more
@settings(max_examples=60, deadline=None, report_multiple_bugs=False,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_renderers_write_json_dumps_and_9g_bytes(xs, ys, labels, count):
    # drawn cells repeat down the column, so every kind lands on both sides of a slice edge
    table = {"x": np.resize(np.array(xs), count), "y %d": np.resize(np.array(ys), count),
             "label": [labels[i % len(labels)] for i in range(count)], "i": list(range(count))}
    columns = list(table)
    assert _lines("".join(render_json(columns, [table], None))) == _lines(
        _reference_json(columns, table, None))
    rows = [f"{format(x, '.9g')},{format(y, '.9g')},{label},{i}" for x, y, label, i
            in zip(table["x"].tolist(), table["y %d"].tolist(), table["label"], table["i"])]
    assert _lines("".join(render_csv(columns, [table], None))) == _lines(
        "\n".join([",".join(columns)] + rows) + "\n")


def test_json_floats_take_per_cell_calls_only_where_9g_differs(capsys, monkeypatch):
    calls = []
    json_cell = cli._json_cell

    def counting_cell(value):
        calls.append(value)
        return json_cell(value)

    monkeypatch.setattr(cli, "_json_cell", counting_cell)
    args = ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-85:85:2001",
            "--allow-singular", "--format", "json", "--no-manifest"]
    code, out, _ = run(capsys, *args)
    table = _joined(cli._table(cli.parse_args(args)))
    assert code == 0 and _lines(out) == _lines(_reference_json(list(table), table, None))
    cells = [value for column in table.values() for value in np.asarray(column).tolist()]
    strings = sum(isinstance(value, str) for value in cells)
    differing = sum(not math.isfinite(value) or 0 < abs(value) < TINY
                    or float(format(value, ".9g")).is_integer()
                    for value in cells if isinstance(value, float))
    assert 0 < len(calls) <= strings + differing < len(cells) // 2


def test_string_cells_take_one_call_per_distinct_value_and_slice(capsys, monkeypatch):
    calls = []
    json_cell = cli._json_cell

    def counting_cell(value):
        calls.append(value)
        return json_cell(value)

    monkeypatch.setattr(cli, "_json_cell", counting_cell)
    args = ["step-rt", "--E", "1.5:9:3001", "--m", "1", "--V0", "5", "--format", "json",
            "--no-manifest"]
    code, out, _ = run(capsys, *args)
    table = _joined(cli._table(cli.parse_args(args)))
    assert code == 0 and _lines(out) == _lines(_reference_json(list(table), table, None))
    slices = -(-3001 // cli._RENDER_SLICE)
    regimes = set(table["regime"])
    assert len(regimes) == 5  # the sweep crosses both thresholds
    strings = [value for value in calls if isinstance(value, str)]
    # per slice: the one convention and the slice's regimes, not 2 x 3001 cells
    assert len(strings) <= slices * (1 + len(regimes))


# ------------------------------------------------------------- batching


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


@pytest.fixture
def spinor_calls(monkeypatch):
    """Counts the step solver's _spinor2 calls: three per batch, one per wave."""
    calls = []
    spinor2 = step._spinor2
    monkeypatch.setattr(step, "_spinor2", lambda *args: calls.append(1) or spinor2(*args))
    return calls


# the 2x2 step system is solved in closed form: no linear solver, and the spinor
# count guards against a per-cell loop
def test_step_compare_solves_in_one_batch_per_convention(capsys, solve_calls, spinor_calls):
    # 10 x 10 x 10 = 1000 cells across every regime, massless cells included
    code, out, _ = run(capsys, "step-compare", "--E", "1.5:9:10", "--m", "0:1.2:10",
                       "--V0", "1:8:10", "--allow-singular", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1000
    assert len(solve_calls) == 0
    assert len(spinor_calls) == 2 * 3 * math.ceil(1000 / cli._SOLVE_BLOCK)


def test_step_rt_solves_in_one_batch(capsys, solve_calls, spinor_calls):
    code, out, _ = run(capsys, "step-rt", "--E", "1.5:9:500", "--m", "1", "--V0", "5",
                       "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 500
    assert len(solve_calls) == 0
    assert len(spinor_calls) <= 3


def test_step_rt_solves_in_one_batch_per_block(capsys, solve_calls, spinor_calls):
    code, out, _ = run(capsys, "step-rt", "--E", "1.5:9:5000", "--m", "1", "--V0", "5",
                       "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 5000
    assert len(solve_calls) == 0
    assert len(spinor_calls) == 3 * math.ceil(5000 / cli._SOLVE_BLOCK)


def test_spinor_check_checks_both_branches_in_one_call_per_block(capsys, monkeypatch):
    calls = []
    residual4 = dirac.hamiltonian_residual4
    monkeypatch.setattr(dirac, "hamiltonian_residual4",
                        lambda psi, *args: calls.append(len(psi)) or residual4(psi, *args))
    # one block: both branches, the evanescent gap between them and eps = 0
    code, out, _ = run(capsys, "spinor-check", "--m", "1", "--eps=-3:3:501", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 501
    assert calls == [sum(abs(-3 + 6 * i / 500) >= 1 for i in range(501))]


@pytest.fixture
def step_solve_calls(monkeypatch):
    """Counts step.solve_step_numeric calls, which the CLI looks up at call time."""
    calls = []
    solve = step.solve_step_numeric
    monkeypatch.setattr(step, "solve_step_numeric",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    return calls


# the step sweeps call the public solver, once per block and convention, so a wrapper
# of the public name (the benchmark's tracer is one) sees the step layer's work
def test_step_sweeps_call_the_public_solver_once_per_block(capsys, step_solve_calls):
    code, _, _ = run(capsys, "step-rt", "--E", "1.5:9:5000", "--m", "1", "--V0", "5",
                     "--no-manifest")
    assert code == 0 and len(step_solve_calls) == math.ceil(5000 / cli._SOLVE_BLOCK)
    step_solve_calls.clear()
    code, _, _ = run(capsys, "step-compare", "--E", "1.5:9:10", "--m", "0:1.2:10",
                     "--V0", "1:8:10", "--allow-singular", "--no-manifest")
    assert code == 0 and len(step_solve_calls) == 2 * math.ceil(1000 / cli._SOLVE_BLOCK)


def test_step_rt_rows_are_the_fields_of_one_library_call(capsys):
    # README: step-rt prints solve_step_numeric(StepProblem(E, m, V0), convention)'s fields
    code, out, err = run(capsys, "step-rt", "--E", "2,4,4.5,6,7.5", "--m", "1", "--V0", "5",
                         "--convention", "common", "--no-manifest")
    assert (code, err) == (0, "")
    energies = np.array([2, 4, 4.5, 6, 7.5])
    sol = step.solve_step_numeric(step.StepProblem(energies, 1.0, 5.0), Convention.COMMON)
    assert set(sol.regime) == set(step.Regime)  # Klein, both thresholds, evanescent, above
    rows = [",".join(["%.9g" % value for value in (E, 1.0, 5.0)] + ["common", regime.value]
                     + ["%.9g" % value for value in (kappa, r.real, r.imag, t.real, t.imag, R, T)])
            for E, kappa, r, t, R, T, regime in zip(energies, *sol)]
    assert out.split("\n")[1:] == rows + [""]


def _block_of(index: int, count: int) -> int:
    """The block that holds cell ``index`` of a ``count``-cell sweep, in _table's equal blocks."""
    return index // math.ceil(count / math.ceil(count / cli._SOLVE_BLOCK))


# every sweep with --allow-singular sentinels, non-propagating rows or both; {n} cells per axis
BLOCKED_SWEEPS = [
    "step-rt --E 0.1:9:{n} --m 0 --V0 5 --convention common --allow-singular",
    "step-compare --E 1.5:9:{n} --m 0,0.5 --V0 1,8 --allow-singular",
    "spinor-check --m 1 --eps=-8:8:{n}",
    "graphene-angle --E 0.3 --V0 0.42 --theta=-85:85:{n} --allow-singular --format json",
    "barrier --lambdaF 50 --V0 0.3 --D 1:200:{n} --theta 30",
    "iv-curve --Vb=-0.2:0.3:{n} --n 3 --format json",
    "angular-current --n {n}",
]


# one sweep per kind of error, each without --allow-singular; {n} cells per axis
FAILING_SWEEPS = {
    "kappa-prime": "step-rt --E 0.1:9:{n} --m 0 --V0 5 --convention common",
    "t-common": "graphene-angle --E 0.3 --V0 0.42 --theta=-85:85:{n}",
    "E-below-m": "step-compare --E 0.1:9:{n} --m 0,5 --V0 5",  # after a singular cell
    "D-not-positive": "barrier --E 1000 --V0 300 --theta 10 --D=-1:1.7e308:{n}",
    "zero-spinor": "spinor-check --m 0 --eps=-8:8:{n}",  # at eps = 0
    "overflow": "spinor-check --m 1 --eps=1e150:1e300:{n}",
    "non-propagating": "angular-current --V0 0.1 --n {n}",
}


@pytest.mark.parametrize("block", [1, 7, 512, 2048])
@pytest.mark.parametrize("sweep", [
    *BLOCKED_SWEEPS, *(pytest.param(sweep, id=kind) for kind, sweep in FAILING_SWEEPS.items()),
], ids=lambda sweep: sweep.split()[0])
def test_blocked_output_is_whole_output(capsys, monkeypatch, sweep, block):
    # an odd count puts theta = 0 and eps = 0 in their sweeps; each sweep spans four blocks or more
    argv = sweep.format(n=4 * block + 5).split() + ["--no-manifest"]
    monkeypatch.setattr(cli, "_SOLVE_BLOCK", block)
    blocked = run(capsys, *argv)
    monkeypatch.setattr(cli, "_SOLVE_BLOCK", 10 ** 9)
    assert blocked == run(capsys, *argv)
    code, out, err = blocked
    if sweep in BLOCKED_SWEEPS:
        assert code == 0 and err == ""
    else:
        assert code in (1, 2) and out == "" and err.startswith("kleinstep: ")


# block 0 holds the near-massless common-convention step's singular cell, or a width whose
# interior overflows; an invalid point lies past the block boundary
NEAR_MASSLESS_ENERGIES = [0.1, *np.linspace(2.0, 3.0, 2100).tolist(), 5e-18]
OVERFLOWING_WIDTHS = [1.7e308, *[1.0] * 600, -1.0]
E_BELOW_M_ERR = ("kleinstep: error: incident wave must propagate in region I: need E > m, "
                 "got E = 5e-18, m = 1e-17\n")


@pytest.mark.parametrize("argv, cells, err", [
    pytest.param(["step-rt", "--E", ",".join(map(repr, NEAR_MASSLESS_ENERGIES)), "--m", "1e-17",
                  "--V0", "1.5", "--convention", "common"], len(NEAR_MASSLESS_ENERGIES),
                 E_BELOW_M_ERR, id="step-rt"),
    pytest.param(["step-compare", "--E", ",".join(map(repr, NEAR_MASSLESS_ENERGIES)), "--m",
                  "1e-17", "--V0", "1.5"], len(NEAR_MASSLESS_ENERGIES), E_BELOW_M_ERR,
                 id="step-compare"),
    pytest.param(["barrier", "--E", "1000", "--V0", "300", "--theta", "10", "--D",
                  ",".join(map(repr, OVERFLOWING_WIDTHS))], len(OVERFLOWING_WIDTHS),
                 "kleinstep: error: barrier width D must be positive\n", id="barrier"),
])
def test_blocked_sweep_names_its_first_invalid_point(capsys, argv, cells, err):
    # the sweep fails on that point, as a whole sweep does: its domain is checked before block 0
    assert _block_of(cells - 1, cells) > 0
    assert run(capsys, *argv, "--no-manifest") == (2, "", err)


@pytest.fixture
def kinematics_calls(monkeypatch):
    """Counts junction.angle_kinematics calls.

    The CLI and angular_current_profile look it up in junction at call time, so it counts
    their calls too.
    """
    calls = []
    angle_kinematics = junction.angle_kinematics

    def counting_kinematics(*args, **kwargs):
        calls.append(args)
        return angle_kinematics(*args, **kwargs)

    monkeypatch.setattr(junction, "angle_kinematics", counting_kinematics)
    return calls


@pytest.fixture
def barrier_calls(monkeypatch):
    """Counts graphene.solve_barrier calls, which the CLI looks up at call time."""
    calls = []
    solve_barrier = graphene.solve_barrier
    monkeypatch.setattr(graphene, "solve_barrier",
                        lambda *args, **kwargs: calls.append(1) or solve_barrier(*args, **kwargs))
    return calls


# the barrier is matched through the interior's transfer matrix in closed form: no linear
# solver, and one solve per block fills both convention columns
def test_barrier_solves_in_one_batch_per_convention(capsys, solve_calls, barrier_calls):
    for count in (500, 5000):
        barrier_calls.clear()
        code, out, _ = run(capsys, "barrier", "--lambdaF", "50", "--V0", "0.3", "--D",
                           f"1:200:{count}", "--theta", "30", "--no-manifest")
        assert code == 0 and len(out.strip().split("\n")) == 1 + count
        assert len(barrier_calls) == math.ceil(count / cli._SOLVE_BLOCK)
    assert len(solve_calls) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_barrier_formats_its_transmission_once_per_slice(capsys, monkeypatch, fmt):
    # T_paper and T_common are one array: six float columns, five arrays to format per slice
    received = []
    float_fields = cli._float_fields
    monkeypatch.setattr(cli, "_float_fields", lambda arrays, cell=None: received.append(
        len(arrays)) or float_fields(arrays, cell))
    code, _, _ = run(capsys, "barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "1:200:600",
                       "--theta", "30", "--format", fmt, "--no-manifest")
    assert code == 0 and received == [5] * 4  # two blocks of 300 rows, each cut into 256 and 44


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_angular_current_formats_its_transmission_once_per_slice(capsys, monkeypatch, fmt):
    # relative_current is the T array itself: three float columns, two arrays to format per slice
    received = []
    float_fields = cli._float_fields
    monkeypatch.setattr(cli, "_float_fields", lambda arrays, cell=None: received.append(
        len(arrays)) or float_fields(arrays, cell))
    code, out, _ = run(capsys, "angular-current", "--lambdaF=40", "--V0=0.4", "--theta-max=85",
                       "--n=2001", "--format", fmt, "--no-manifest")
    assert code == 0 and received == [2] * 8  # four blocks of 500 or 501 rows, two slices each
    if fmt == "csv":
        rows = [dict(zip(("theta_deg", "T", "relative_current"), line.split(",")))
                for line in out.splitlines()[1:]]
    else:
        rows = json.loads(out, parse_float=str)["rows"]  # each number as its text
    assert len(rows) == 2001
    assert all(row["relative_current"] == row["T"] for row in rows)


def test_barrier_at_critical_interior_is_regular(capsys):
    # an interior exactly at its critical angle (k_xII == 0) is a regular cell: its row holds
    # the regular closed form's T at 50 digits in both columns
    code, out, err = run(capsys, "barrier", "--E", "0.05011252813203301",
                         "--V0", "0.02505626406601651", "--D", "10", "--theta", "30",
                         "--no-manifest")
    assert (code, err) == (0, "")
    assert out.split("\n")[1] == "0.0501125281,0.0250562641,10,30,0.953867023,0.953867023"


def test_graphene_angle_in_one_kinematics_call(capsys, kinematics_calls):
    code, out, _ = run(capsys, "graphene-angle", "--E", "0.3", "--V0", "0.42",
                       "--theta=-85:85:1000", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1000
    assert ",nan,nan,0,0" in out  # angles beyond the critical angle are in the sweep
    assert len(kinematics_calls) <= 2


def test_iv_curve_in_one_call(capsys, monkeypatch):
    from kleinstep import device
    calls = []
    iv_curve = device.iv_curve
    monkeypatch.setattr(device, "iv_curve", lambda *args: calls.append(args) or iv_curve(*args))
    code, out, _ = run(capsys, "iv-curve", "--Vb", "0.1:0.5:40", "--n", "25", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 40 * 25
    assert len(calls) == math.ceil(40 * 25 / cli._SOLVE_BLOCK)  # one call per block


def test_angular_current_in_one_kinematics_call(capsys, kinematics_calls):
    code, out, _ = run(capsys, "angular-current", "--n", "1001", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1001
    assert len(kinematics_calls) <= 2

def test_zero_determinant_is_a_singular_cell(capsys):
    # kappa' rounds to -1.0000000000000002, not -1, but the matching determinant is 0:
    # a singular cell, not a failed solve
    args = ("step-rt", "--E", "0.1", "--m", "1e-17", "--V0", "1.5", "--convention", "common",
            "--no-manifest")
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    assert err == ("kleinstep: numerical failure: singular denominator: 1 + kappa_prime "
                   "(massless Klein step in the momentum-labelled convention)\n"
                   "kleinstep: rerun with --allow-singular to emit unbounded values\n")
    code, out, err = run(capsys, *args, "--allow-singular")
    assert (code, err) == (0, "")
    assert out.split("\n")[1] == "0.1,1e-17,1.5,common,klein,-1,nan,0,nan,0,inf,-inf"

    # the barrier has no singular matching: an interior exactly at its critical angle
    # (k_xII == 0) gives the regular closed form's T at 50 digits in both columns
    code, out, err = run(capsys, "barrier", "--E", "0.05", "--V0", "0.075", "--D", "10,20",
                         "--theta", "30", "--no-manifest")
    assert (code, err) == (0, "")
    assert out.split("\n")[1:] == ["0.05,0.075,10,30,0.697678578,0.697678578",
                                   "0.05,0.075,20,30,0.365858233,0.365858233", ""]


# a failing sweep fails fast from its own sentinels: no kernel is called again at 0-d
SINGULAR_STEP = ["step-rt", "--E", "0.1", "--m", "1e-17", "--V0", "1.5", "--convention", "common"]
SINGULAR_ANGLES = ["graphene-angle", "--lambdaF", "50", "--V0", "0.3", "--theta", "0,45"]
SINGULAR_STEP_ERR = ("kleinstep: numerical failure: singular denominator: 1 + kappa_prime "
                     "(massless Klein step in the momentum-labelled convention)\n"
                     "kleinstep: rerun with --allow-singular to emit unbounded values\n")


def test_singular_step_sweep_is_solved_once(capsys, spinor_calls):
    code, out, err = run(capsys, *SINGULAR_STEP, "--no-manifest")
    assert (code, out, err) == (1, "", SINGULAR_STEP_ERR)
    assert len(spinor_calls) == 3


def test_singular_angle_sweep_is_solved_once(capsys, kinematics_calls):
    code, out, err = run(capsys, *SINGULAR_ANGLES, "--no-manifest")
    assert (code, out) == (1, "")
    assert err.startswith("kleinstep: numerical failure: singular denominator: s_I exp")
    assert len(kinematics_calls) == 1


def test_singular_cell_past_the_first_block(capsys, spinor_calls, kinematics_calls):
    # the only singular cell lies past the first block (theta = 0 is cell 5,001, index 5,000;
    # E = 0.1 is cell index 4,200): the blocks up to it are solved once each, and no cell again
    golden = pathlib.Path(__file__).parent / "golden" / "graphene-angle-singular.stderr"
    code, out, err = run(capsys, "graphene-angle", "--E", "0.3", "--V0", "0.42",
                         "--theta=-80:80:10001")
    assert (code, out, err) == (1, "", golden.read_text(encoding="utf-8"))
    assert len(kinematics_calls) == _block_of(5000, 10001) + 1 == 10  # 20 blocks of 501
    energies = ",".join(map(repr, [*np.linspace(2.0, 3.0, 4200).tolist(), 0.1]))
    code, out, err = run(capsys, *SINGULAR_STEP[:2], energies, *SINGULAR_STEP[3:])
    assert (code, out, err) == (1, "", SINGULAR_STEP_ERR)
    assert len(spinor_calls) == 3 * (_block_of(4200, 4201) + 1) == 3 * 9  # 9 blocks of 467


def _beyond_critical():
    return junction.angle_kinematics(0.3, 0.42, math.radians(80))


# t_paper's |den| = 2 cos((theta_I - theta_II)/2) vanishes only for kinematics no step gives
_T_PAPER_POLE = junction.AngleKinematics(math.pi / 2 - 1e-13, 1.0, 1.0, 1e-13,
                                         -(math.pi / 2 - 1e-13), 1, True)


BAD_CELL_CALLS = [
    ("kappa", lambda: step.rt_from_kappa(-1.0), None),
    ("kappa_prime", lambda: step.solve_step_numeric(step.StepProblem(0.1, 1e-17, 1.5), "common"),
     SINGULAR_STEP),
    ("kappa_prime", lambda: step.solve_step_numeric(step.StepProblem(2.0, 0.0, 5.0), "common"),
     ["step-compare", "--E", "2", "--m", "0", "--V0", "5"]),
    ("t_common", lambda: junction.t_common(junction.angle_kinematics(0.08, 0.3, 0.0)),
     ["graphene-angle", "--E", "0.08", "--V0", "0.3", "--theta", "0"]),
    ("t_paper", lambda: junction.t_paper(_T_PAPER_POLE), None),
    ("non_propagating", lambda: junction.t_paper(_beyond_critical()), None),
    ("non_propagating", lambda: junction.t_common(_beyond_critical()), None),
    ("non_propagating", lambda: junction.transmission_probability(0j, _beyond_critical()), None),
]


def test_every_bad_cell_kind_has_a_call():
    assert {kind for kind, _, _ in BAD_CELL_CALLS} == set(_BAD_CELLS)


@pytest.mark.parametrize("kind,call,argv", BAD_CELL_CALLS, ids=[
    "kappa", "kappa_prime-zero-determinant", "kappa_prime-massless", "t_common", "t_paper",
    "non_propagating-t_paper", "non_propagating-t_common", "non_propagating-probability"])
def test_bad_cell_errors_come_from_one_table(capsys, kind, call, argv):
    error, *args = _BAD_CELLS[kind]
    with pytest.raises(Exception) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == str(error(*args))
    if argv is not None:
        code, out, err = run(capsys, *argv, "--no-manifest")
        assert (code, out) == (1, "")
        assert err.split("\n")[0] == f"kleinstep: numerical failure: {excinfo.value}"


# ------------------------------------------------------------- import isolation

LOADED_MODULES = """
import contextlib, io, sys
import kleinstep.cli

def loaded():
    return [name for name in ("step", "basis", "dirac", "graphene", "junction", "device")
            if "kleinstep." + name in sys.modules]

assert loaded() == [], loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = kleinstep.cli.main(sys.argv[1:])
print(code, *loaded())
"""

COMMAND_MODULES = [
    (["--help"], set()),
    (["step-rt", "--E", "2,7", "--m", "1", "--V0", "5"], {"step", "dirac"}),
    (["step-compare", "--E", "2", "--m", "1", "--V0", "5"], {"step", "dirac"}),
    (["spinor-check", "--m", "1", "--eps", "2,-3"], {"dirac"}),
    (["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta", "10,20"],
     {"graphene", "junction"}),
    (["barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "10,20"], {"graphene"}),
    (["iv-curve", "--n", "3"], {"device"}),
    (["angular-current", "--n", "3"], {"graphene", "junction"}),
]


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(argv, modules):
    # importing the CLI loads no physics module; a launch loads its command's modules only
    result = run_fresh(LOADED_MODULES, *argv)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.split()
    assert (code, set(loaded)) == ("0", modules)


IMPORT_GUARD = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
import kleinstep.cli

for options in (["--format", "csv"], ["--format", "json", "--no-manifest"], ["--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = kleinstep.cli.main(sys.argv[1:] + options)
    new = {"dataclasses", "json"} & set(sys.modules) - before
    print(*options[1:], code, "json" in before, *sorted(new))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_MODULES[1:]],
                         ids=[argv[0] for argv, _ in COMMAND_MODULES[1:]])
def test_launch_loads_json_only_for_json(argv):
    # after numpy, a CSV launch loads neither dataclasses nor json, nor does a JSON launch
    # without its manifest; a JSON launch with its manifest then loads json
    result = run_fresh(IMPORT_GUARD, *argv)
    assert result.returncode == 0, result.stderr
    preloaded = result.stdout.split()[2]
    json_loaded = [] if preloaded == "True" else ["json"]
    assert result.stdout.split("\n")[:3] == [f"csv 0 {preloaded}",
                                              f"json --no-manifest 0 {preloaded}",
                                              " ".join(["json 0", preloaded, *json_loaded])]


PARSER_GUARD = """
import contextlib, io, sys
import kleinstep.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = kleinstep.cli.main(sys.argv[1:])
print(code, *sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_MODULES[1:]],
                         ids=[argv[0] for argv, _ in COMMAND_MODULES[1:]])
def test_well_formed_launch_loads_no_argparse(argv):
    # a command and whole flag names need no argparse, nor the gettext and locale it loads
    result = run_fresh(PARSER_GUARD, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]
