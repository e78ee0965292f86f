"""CLI behavior: columns, formatting, determinism, exit codes, config handling."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from kleinstep import cli, device, graphene
from kleinstep.cli import RunManifest, main, render_csv, render_json

from oracles import rt_pair, step_kappa, step_kappa_prime
from test_contracts import run_fresh


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert path_a.read_bytes() == path_b.read_bytes()


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

    def test_massless_common_step(self, capsys):
        code, _, err = run(
            capsys, "step-compare", "--E", "2", "--m", "0", "--V0", "5", "--no-manifest"
        )
        assert code == 1
        assert "kappa_prime" in err
        code2, out, _ = run(
            capsys, "step-compare", "--E", "2", "--m", "0", "--V0", "5",
            "--no-manifest", "--allow-singular",
        )
        assert code2 == 0
        assert "inf" in out


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
    assert path.read_text() == out


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


SPECIAL_TABLE = {
    "x": np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0 / 3.0, 2.5e-320, -7.0]),
    "label": ["klein", "a \"quoted\" name", "tab\there", "unicode \u00e9", "", "x", "y", "z"],
    "y": [1e300, -1e-300, 123456789.5, 0.1, math.nan, 1.0, -2.0, 3.0],
}
MANIFEST = RunManifest("0.1.0", "step-rt", {"E": [1.0, 2.5], "m": 1.0, "convention": "paper",
                                            "lambdaF": None, "n": 5},
                       timestamp="2026-01-01T00:00:00+00:00")


@pytest.mark.parametrize("manifest", [None, MANIFEST], ids=["no-manifest", "manifest"])
def test_render_json_is_json_dumps(manifest):
    columns = ["x", "label", "y"]
    assert render_json(columns, SPECIAL_TABLE, manifest) == _reference_json(
        columns, SPECIAL_TABLE, manifest)


@pytest.mark.parametrize("manifest", [None, MANIFEST], ids=["no-manifest", "manifest"])
def test_render_json_empty_sweep(manifest):
    columns = ["E", "regime"]
    table = {"E": np.array([]), "regime": []}
    assert render_json(columns, table, manifest) == _reference_json(columns, table, manifest)


def test_renderers_across_slices():
    count = 2 * cli._RENDER_SLICE + 7
    values = np.random.default_rng(5).standard_normal(count) * 10.0 ** (np.arange(count) % 40 - 20)
    table = {"v": values, "i": list(range(count))}
    assert render_json(["v", "i"], table, None) == _reference_json(["v", "i"], table, None)
    lines = render_csv(["v", "i"], table, None).split("\n")
    assert lines[0] == "v,i" and lines[-1] == "" and len(lines) == count + 2
    assert lines[1:-1] == [f"{format(v, '.9g')},{i}" for i, v in enumerate(values.tolist())]


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
# no explain phase: it reruns these 2k-row examples for minutes after a failure
@settings(max_examples=60, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
def test_renderers_write_json_dumps_and_9g_bytes(xs, ys, labels, count):
    # drawn cells repeat down the column, so every kind lands on both sides of a slice edge
    table = {"x": np.resize(np.array(xs), count), "y %d": np.resize(np.array(ys), count),
             "label": [labels[i % len(labels)] for i in range(count)], "i": list(range(count))}
    columns = list(table)
    assert render_json(columns, table, None) == _reference_json(columns, table, None)
    rows = [f"{format(x, '.9g')},{format(y, '.9g')},{label},{i}" for x, y, label, i
            in zip(table["x"].tolist(), table["y %d"].tolist(), table["label"], table["i"])]
    assert render_csv(columns, table, None) == "\n".join([",".join(columns)] + rows) + "\n"


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
    table = cli._COMMANDS["graphene-angle"].rows(cli.parse_args(args))
    assert code == 0 and out == _reference_json(list(table), table, None)
    cells = [value for column in table.values() for value in np.asarray(column).tolist()]
    strings = sum(isinstance(value, str) for value in cells)
    differing = sum(not math.isfinite(value) or 0 < abs(value) < TINY
                    or float(format(value, ".9g")).is_integer()
                    for value in cells if isinstance(value, float))
    assert 0 < len(calls) <= strings + differing < len(cells) // 2


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


def test_step_compare_solves_in_one_batch_per_convention(capsys, solve_calls):
    # 10 x 10 x 10 = 1000 cells across every regime, massless cells included
    code, out, _ = run(capsys, "step-compare", "--E", "1.5:9:10", "--m", "0:1.2:10",
                       "--V0", "1:8:10", "--allow-singular", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1000
    assert len(solve_calls) <= 2


def test_step_rt_solves_in_one_batch(capsys, solve_calls):
    code, out, _ = run(capsys, "step-rt", "--E", "1.5:9:500", "--m", "1", "--V0", "5",
                       "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 500
    assert len(solve_calls) <= 1



@pytest.fixture
def kinematics_calls(monkeypatch):
    """Counts angle_kinematics calls, in every module that imported it.

    The CLI imports it from graphene inside each sweep, so it counts the CLI's calls too.
    """
    calls = []
    angle_kinematics = graphene.angle_kinematics

    def counting_kinematics(*args, **kwargs):
        calls.append(args)
        return angle_kinematics(*args, **kwargs)

    for module in (graphene, device):
        monkeypatch.setattr(module, "angle_kinematics", counting_kinematics)
    return calls


def test_barrier_solves_in_one_batch_per_convention(capsys, solve_calls):
    code, out, _ = run(capsys, "barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "1:200:500",
                       "--theta", "30", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 500
    assert len(solve_calls) <= 2


def test_graphene_angle_in_one_kinematics_call(capsys, kinematics_calls):
    code, out, _ = run(capsys, "graphene-angle", "--E", "0.3", "--V0", "0.42",
                       "--theta=-85:85:1000", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1000
    assert ",nan,nan,0,0" in out  # angles beyond the critical angle are in the sweep
    assert len(kinematics_calls) <= 2


def test_angular_current_in_one_kinematics_call(capsys, kinematics_calls):
    code, out, _ = run(capsys, "angular-current", "--n", "1001", "--no-manifest")
    assert code == 0 and len(out.strip().split("\n")) == 1 + 1001
    assert len(kinematics_calls) <= 2

def test_linalg_failure_is_numerical_exit(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code, out, err = run(capsys, "step-rt", "--E", "2,7", "--m", "1", "--V0", "5",
                         "--no-manifest")
    assert (code, out) == (1, "")
    assert err == "kleinstep: numerical failure: Singular matrix\n"


# ------------------------------------------------------------- import isolation

LOADED_MODULES = """
import contextlib, io, sys
import kleinstep.cli

def loaded():
    return [name for name in ("step", "dirac", "graphene", "device")
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
    (["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta", "10,20"], {"graphene"}),
    (["barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "10,20"], {"graphene"}),
    (["iv-curve", "--n", "3"], {"device", "graphene"}),
    (["angular-current", "--n", "3"], {"device", "graphene"}),
]


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_command_loads_only_its_modules(argv, modules):
    # importing the CLI loads no physics module; a launch loads its command's modules only
    result = run_fresh(LOADED_MODULES, *argv)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.split()
    assert (code, set(loaded)) == ("0", modules)
