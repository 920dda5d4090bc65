"""Command-line behavior: exit codes, determinism, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TABLE_CONFIG = """\
[stack]
eps_substrate = 11.7
eps_ma = 9.8
eps_ms = 9.8
eps_sa = 3.8
t_ma_nm = 2
t_ms_nm = 2
t_sa_nm = 2
tan_ma = 0.005
tan_ms = 0.005
tan_sa = 0.005

[targets]
capacitance_ff = 100
span_ghz = 2

[structure.plate]
type = parallel_plate
s_um = 5
w_um = 100
length_um = 1130

[structure.pads]
type = ribbon
a_um = 50
b_um = 100
length_um = 1391
t_um = 0.1

[structure.wire]
type = straight_wire
half_width_um = 0.1
d_um = 50
t_um = 0.1

[structure.taper]
type = tapered_wire
r0_um = 0.1
slope = 0.4
d_um = 50
t_um = 0.1
"""


def run_cli(*args, cwd=None):
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "surfloss.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture
def table_config(tmp_path):
    path = tmp_path / "design.ini"
    path.write_text(TABLE_CONFIG)
    return path


def test_analyze_table(table_config):
    res = run_cli("analyze", "--config", str(table_config))
    assert res.returncode == 0, res.stderr
    assert "pads" in res.stdout
    assert "8.17e-05" in res.stdout or "8.16e-05" in res.stdout  # plate p_MA
    assert "1.42e-04" in res.stdout                              # ribbon p_MS
    assert "total loss tangent" in res.stdout


def test_analyze_deterministic(table_config, tmp_path):
    r1 = run_cli("analyze", "--config", str(table_config))
    r2 = run_cli("analyze", "--config", str(table_config))
    assert r1.stdout == r2.stdout


def test_analyze_csv_output(table_config, tmp_path):
    out = tmp_path / "out"
    res = run_cli("analyze", "--config", str(table_config),
                  "--out", str(out), "--format", "csv")
    assert res.returncode == 0
    lines = (out / "analyze.csv").read_text().splitlines()
    assert lines[0].startswith("structure,")
    assert lines[-1].startswith("TOTAL,")


def test_analyze_jsonl_output_matches_csv(table_config, tmp_path):
    out = tmp_path / "out"
    for fmt in ("csv", "jsonl"):
        res = run_cli("analyze", "--config", str(table_config),
                      "--out", str(out), "--format", fmt)
        assert res.returncode == 0, res.stderr
    csv_lines = (out / "analyze.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    json_lines = (out / "analyze.jsonl").read_text().splitlines()
    assert len(json_lines) == len(csv_lines) - 1
    objs = [json.loads(line) for line in json_lines]
    # one object per structure in config order, then TOTAL; keys sorted
    assert [o["structure"] for o in objs] == ["plate", "pads", "wire",
                                              "taper", "TOTAL"]
    for line, obj in zip(json_lines, objs):
        assert list(obj) == sorted(header)
        assert line == json.dumps(obj, sort_keys=True)
    for row, obj in zip(csv_lines[1:], objs):
        cells = row.split(",")
        assert cells[0] == obj["structure"]
        for key, cell in zip(header[1:], cells[1:]):
            assert float(cell) == pytest.approx(obj[key], rel=1e-12)


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["sweep", "--param", "structure.wire.d_um", "--range", "10:50",
     "--steps", "3"]], ids=["analyze", "sweep"])
def test_closed_stdout_ends_quietly(table_config, argv, unbuffered):
    # a reader that has gone (`| head -n 1` after its line) is no failure:
    # exit 0 and nothing on stderr, whether the write that finds the pipe
    # closed is a print (unbuffered) or the flush of the buffer
    import os
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "surfloss.cli", *argv,
                              "--config", str(table_config)],
                             stdout=write_end, stderr=subprocess.PIPE,
                             text=True, env=env)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (0, "")


@pytest.mark.parametrize("argv, name", [
    (["analyze"], "analyze.csv"),
    (["taper"], "taper_curve.csv"),
    (["sweep", "--param", "stack.tan_ms", "--range", "0:0.01",
      "--steps", "2"], "sweep.csv"),
    (["tls"], "tls_pads.csv"),
], ids=["analyze", "taper", "sweep", "tls"])
def test_unusable_out_path_is_config_error(table_config, tmp_path, capsys,
                                           argv, name):
    # a regular file where --out needs a directory: one error[2] line that
    # names the directory that could not be made, not a traceback, and
    # nothing on stdout, as the directory is made before the command runs
    from surfloss import cli
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out, cause in ((blocker, "File exists"),
                       (blocker / "sub", "Not a directory")):
        assert cli.main([*argv, "--config", str(table_config),
                         "--out", str(out)]) == 2
        res = capsys.readouterr()
        assert res.err.splitlines() == [
            f"error[2]: --out: cannot write {out}: {cause}"]
        assert res.out == ""
    assert blocker.read_text() == ""
    # a directory where the file goes: the write itself fails, after the
    # command has printed
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert cli.main([*argv, "--config", str(table_config),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error[2]: --out: cannot write {out / name}: Is a directory"]


def test_analyze_rejects_table_format(table_config, tmp_path):
    out = tmp_path / "out"
    res = run_cli("analyze", "--config", str(table_config),
                  "--out", str(out), "--format", "table")
    assert res.returncode == 2
    assert "--format" in res.stderr
    assert res.stdout == ""
    assert not out.exists()


def test_analyze_empty_structures(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[stack]\neps_ma = 9.8\n")
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert "error[2]" in res.stderr


def test_analyze_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(TABLE_CONFIG + "\n[structure.x]\ntype = ribbon\n"
                    "a_um = 1\nb_um = 2\nlength_um = 3\nt_um = 0.1\n"
                    "bogus = 7\n")
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert "bogus" in res.stderr


def test_analyze_collects_multiple_errors(tmp_path):
    path = tmp_path / "bad2.ini"
    path.write_text("""
[structure.w]
type = straight_wire
half_width_um = -1
d_um = -2
t_um = 0.1
""")
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.count("error[2]") >= 2


def test_verify_coax(table_config):
    res = run_cli("verify", "--suite", "coax", "--mesh-scale", "0.5")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS]" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_unknown_suite():
    res = run_cli("verify", "--suite", "nonsense")
    assert res.returncode == 2


def test_sweep_zero_steps(table_config):
    res = run_cli("sweep", "--config", str(table_config),
                  "--param", "structure.wire.d_um", "--range", "10:50",
                  "--steps", "0")
    assert res.returncode == 2


def test_sweep_bad_param(table_config):
    res = run_cli("sweep", "--config", str(table_config),
                  "--param", "structure.wire.nope", "--range", "10:50",
                  "--steps", "2")
    assert res.returncode == 2


def test_sweep_wire_length(table_config):
    res = run_cli("sweep", "--config", str(table_config),
                  "--param", "structure.wire.d_um", "--range", "10:50",
                  "--steps", "3")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("param,")
    assert len(lines) == 4
    assert "wire.u_metal" in lines[0] and "taper.u_metal_fit" in lines[0]
    res2 = run_cli("sweep", "--config", str(table_config),
                   "--param", "structure.wire.d_um", "--range", "10:50",
                   "--steps", "3")
    assert res.stdout == res2.stdout


def test_sweep_invalid_step_is_config_error(table_config):
    # d = 0.1 um fails the straight wire's d > 2*half_width at the first step
    res = run_cli("sweep", "--config", str(table_config),
                  "--param", "structure.wire.d_um", "--range", "0.1:50",
                  "--steps", "2")
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[2]: structure.wire.d_um=0.1: ")
    assert "need d > 2*half_width" in lines[0]


def test_sweep_step_problems_print_one_line_each(capsys):
    # the 1000 nm step's oxide is thicker than each film's metal; each
    # problem is its own line, prefixed with the step, as analyze prints it
    from surfloss import cli
    cfg = str(SRC.parent / "configs" / "transmon_100ff.ini")
    assert cli.main(["sweep", "--config", cfg, "--param", "stack.t_ma_nm",
                     "--range", "1:1000", "--steps", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "".join(
        "error[2]: stack.t_ma_nm=1000.0: stack.t_ma: oxide must be far "
        f"thinner than {label} metal thickness\n"
        for label in ("pads", "ground_coupling", "wire", "taper"))


#: every command that reads a design config; the sweep varies a key that
#: no target problem depends on
DESIGN_COMMANDS = {
    "analyze": [], "taper": [], "tls": [],
    "sweep": ["--param", "stack.tan_ms", "--range", "0.001:0.01",
              "--steps", "2"],
}


@pytest.mark.parametrize("cmd", DESIGN_COMMANDS, ids=DESIGN_COMMANDS)
@pytest.mark.parametrize("key, value, problem", [
    ("capacitance_ff", "0", "must be > 0"),
    ("capacitance_ff", "-5", "must be > 0"),
    # 1e-335 F underflows to 0
    ("capacitance_ff", "1e-320", "must be > 0"),
    ("span_ghz", "0", "must be > 0"),
    ("span_ghz", "1e300", "overflows in Hz"),
    ("capacitance_ff", "abc", "not a number: 'abc'"),
    ("volume_um", "1", "unknown key"),
], ids=["c=0", "c=-5", "c=1e-320", "span=0", "span=1e300", "c=abc",
        "unknown"])
def test_every_command_rejects_the_same_targets(tmp_path, capsys, cmd, key,
                                                value, problem):
    import configparser
    from surfloss import cli
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(TABLE_CONFIG)
    cp["targets"][key] = value
    path = tmp_path / "targets.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    assert cli.main([cmd, "--config", str(path), *DESIGN_COMMANDS[cmd]]) == 2
    assert capsys.readouterr() == ("", f"error[2]: targets.{key}: {problem}\n")


def test_taper_command(table_config):
    res = run_cli("taper", "--config", str(table_config))
    assert res.returncode == 0, res.stderr
    assert "optimal slope S*" in res.stdout
    s_star = float(res.stdout.split("S* = ")[1].split()[0])
    assert 0.40 <= s_star <= 0.45


def test_taper_slope_cap_warning(tmp_path):
    path = tmp_path / "steep.ini"
    path.write_text("""
[structure.t]
type = tapered_wire
r0_um = 0.1
slope = 0.6
d_um = 50
t_um = 0.1
""")
    res = run_cli("taper", "--config", str(path))
    assert res.returncode == 0
    assert "warning" in res.stderr and "0.45" in res.stderr


def test_taper_requires_wire(tmp_path):
    path = tmp_path / "nowire.ini"
    path.write_text("""
[structure.pads]
type = ribbon
a_um = 50
b_um = 100
length_um = 1391
t_um = 0.1
""")
    res = run_cli("taper", "--config", str(path))
    assert res.returncode == 2


#: r0 >= 20t: the pole of the line-energy integrand 1/ln(4y/r0)^2 at
#: y = r0/4 lies in [5t, d], so the integral the wire fits stand for
#: diverges.  Validation rejects a tapered wire this wide; taper still
#: integrates the tapered energy of a straight one.
POLE_WIRES = {
    "tapered": """
[structure.taper]
type = tapered_wire
r0_um = 2
slope = 0.4
d_um = 50
t_um = 0.02
""",
    "straight": """
[structure.wire]
type = straight_wire
half_width_um = 2
d_um = 50
t_um = 0.02
""",
}


@pytest.mark.parametrize("cmd, wire, code", [
    pytest.param(["taper"], "straight", 3, id="taper"),
    pytest.param(["sweep", "--param", "structure.taper.d_um",
                  "--range", "40:50", "--steps", "2"], "tapered", 2, id="sweep"),
    pytest.param(["analyze"], "tapered", 2, id="analyze"),
    pytest.param(["tls"], "tapered", 2, id="tls"),
])
def test_wire_energy_pole_is_numerical_error(tmp_path, cmd, wire, code):
    path = tmp_path / "pole.ini"
    path.write_text(POLE_WIRES[wire])
    res = run_cli(cmd[0], "--config", str(path), *cmd[1:])
    assert res.returncode == code
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    if code == 3:
        assert lines[0].startswith("error[3]: ") and "pole" in lines[0]
    else:
        assert lines[0].startswith("error[2]: taper.r0: need r0 < 20*t")
    assert res.stdout == ""


@pytest.mark.parametrize("cmd", [
    pytest.param(["analyze"], id="analyze"),
    pytest.param(["tls"], id="tls"),
    pytest.param(["taper"], id="taper"),
    pytest.param(["sweep", "--param", "structure.taper.d_um",
                  "--range", "40:50", "--steps", "2"], id="sweep"),
])
def test_tapered_wire_thicker_than_its_width_is_config_error(tmp_path, cmd):
    # t > 2*r0: the film is thicker than the wire is wide, as a straight
    # wire may not be either
    path = tmp_path / "thick.ini"
    path.write_text("[structure.taper]\ntype = tapered_wire\nr0_um = 0.1\n"
                    "slope = 0.4\nd_um = 50\nt_um = 2\n")
    res = run_cli(cmd[0], "--config", str(path), *cmd[1:])
    assert res.returncode == 2
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    assert res.stderr.splitlines() == ["error[2]: taper.t: need t <= 2*r0"]
    assert res.stdout == ""


def test_taper_that_does_not_widen_is_config_error(tmp_path):
    # S*(d - 5t) = 5e-5 um < r0: the profile max(r0, (y - 5t)*S) never
    # leaves r0, and the taper forms would give negative participations
    path = tmp_path / "flat.ini"
    path.write_text("[structure.taper]\ntype = tapered_wire\nr0_um = 0.1\n"
                    "slope = 1e-6\nd_um = 50\nt_um = 0.1\n")
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        "error[2]: taper.slope: need slope*(d - 5*t) > r0, or the taper "
        "does not widen inside the wire"]
    assert res.stdout == ""


def test_tls_command(table_config, tmp_path):
    out = tmp_path / "tlsout"
    res = run_cli("tls", "--config", str(table_config), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "parallel plate" in res.stdout
    assert "one-per-200-MHz" in res.stdout
    csv_path = out / "tls_pads.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s_max_hz,cumulative_area_um2"
    assert len(lines) > 100
    # the header and 961 slices of 40 face and 12 corner patches
    lines = (out / "tls_wire.csv").read_text().splitlines()
    assert lines[0] == "s_max_hz,cumulative_area_um2"
    assert len(lines) == 1 + 961 * 52 == 49973
    # the count is fixed; argparse rejects a flag to set it
    res = run_cli("tls", "--config", str(table_config), "--sections", "20000")
    assert res.returncode == 2
    assert "unrecognized arguments: --sections 20000" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("span", ["0", "-1"])
def test_tls_rejects_non_positive_config_span(tmp_path, span):
    path = tmp_path / "span.ini"
    path.write_text(TABLE_CONFIG.replace("span_ghz = 2", f"span_ghz = {span}"))
    res = run_cli("tls", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr == "error[2]: targets.span_ghz: must be > 0\n"
    assert res.stdout == ""


@pytest.mark.parametrize("where", ["config", "flag"])
def test_tls_rejects_span_overflowing_in_hz(tmp_path, where):
    # 1e300 GHz is finite, but 1e309 Hz is not; the span is read from the
    # config only, and argparse rejects a flag to set it
    path = tmp_path / "span.ini"
    if where == "config":
        path.write_text(TABLE_CONFIG.replace("span_ghz = 2", "span_ghz = 1e300"))
        res = run_cli("tls", "--config", str(path))
        assert res.stderr == "error[2]: targets.span_ghz: overflows in Hz\n"
    else:
        path.write_text(TABLE_CONFIG)
        res = run_cli("tls", "--config", str(path), "--span-ghz", "1e300")
        assert "unrecognized arguments: --span-ghz 1e300" in res.stderr
    assert res.returncode == 2
    assert res.stdout == ""


def test_tls_count_overflow_is_numerical_error(tmp_path):
    # the span fits in Hz, the expected splitting count over it does not
    path = tmp_path / "span.ini"
    path.write_text(TABLE_CONFIG.replace("span_ghz = 2", "span_ghz = 1e299"))
    res = run_cli("tls", "--config", str(path))
    assert res.returncode == 3
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == "error[3]: pads: expected count over the span overflows"
    assert "inf" not in res.stdout


@pytest.mark.parametrize("cmd", [
    pytest.param(["analyze"], id="analyze"),
    pytest.param(["sweep", "--param", "structure.pads.a_um",
                  "--range", "40:50", "--steps", "2"], id="sweep"),
])
def test_permittivity_overflow_is_numerical_error(tmp_path, cmd):
    # eps_s^2 in the metal-substrate weight overflows a float
    path = tmp_path / "eps.ini"
    path.write_text(TABLE_CONFIG.replace("eps_substrate = 11.7",
                                         "eps_substrate = 1e200"))
    res = run_cli(cmd[0], "--config", str(path), *cmd[1:])
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    step = "structure.pads.a_um=40.0: " if cmd[0] == "sweep" else ""
    assert lines[0].startswith(f"error[3]: {step}plate: floating-point "
                               "overflow")
    assert res.stdout == ""


@pytest.mark.parametrize("cmd", ["analyze", "tls"])
@pytest.mark.parametrize("replace, label", [
    pytest.param(("eps_substrate = 11.7", "eps_substrate = 1e200"), "plate",
                 id="eps-overflow"),
])
def test_numerical_error_names_the_structure(tmp_path, cmd, replace, label):
    path = tmp_path / "design.ini"
    path.write_text(TABLE_CONFIG.replace(*replace))
    res = run_cli(cmd, "--config", str(path))
    assert res.returncode == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[3]: ")
    assert f" {label}: " in lines[0]
    assert res.stdout == ""


@pytest.mark.parametrize("replace, label", [
    pytest.param(("w_um = 100", "w_um = 1e308"), "plate", id="plate-s-max"),
    pytest.param(("length_um = 1391", "length_um = 1e-300"), "pads",
                 id="pads-spectrum-overflow"),
])
def test_tls_numerical_error_names_the_structure(tmp_path, replace, label):
    # analyze takes these designs; their TLS spectra leave the float range
    path = tmp_path / "design.ini"
    path.write_text(TABLE_CONFIG.replace(*replace))
    res = run_cli("tls", "--config", str(path))
    assert res.returncode == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[3]: {label}: ")


@pytest.mark.parametrize("cmd", ["analyze", "tls"])
def test_plate_denominator_underflow_is_numerical_error(tmp_path, cmd):
    # s^2 underflows to zero in the plate's metal-air participation
    path = tmp_path / "plate.ini"
    path.write_text("[structure.plate]\ntype = parallel_plate\n"
                    "s_um = 1e-300\nw_um = 100\nlength_um = 1e-300\n")
    res = run_cli(cmd, "--config", str(path))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[3]: ")
    assert res.stdout == ""


def test_taper_quadrature_failure_is_numerical_error(tmp_path):
    # r0 just under 20t: the pole of 1/ln(4y/r0)^2 at y = r0/4 sits just
    # below the lower limit 5t, and the line-energy quadrature does not
    # converge
    path = tmp_path / "near_pole.ini"
    path.write_text("[structure.taper]\ntype = tapered_wire\n"
                    "r0_um = 1.999999\nslope = 0.2\nd_um = 50\nt_um = 0.1\n")
    res = run_cli("taper", "--config", str(path))
    assert res.returncode == 3
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error[3]: taper: wire line-energy quadrature")
    assert res.stdout == ""


@pytest.mark.parametrize("wire", [
    "type = straight_wire\nhalf_width_um = 0.1\n",
    "type = tapered_wire\nr0_um = 0.1\nslope = 0.2\n",
], ids=["straight", "tapered"])
def test_taper_numerical_error_names_the_wire(tmp_path, wire):
    # a wire 1e300 um long: the line-energy quadrature does not converge
    path = tmp_path / "long.ini"
    path.write_text(f"[structure.wire]\n{wire}d_um = 1e300\nt_um = 0.1\n")
    res = run_cli("taper", "--config", str(path))
    assert res.returncode == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[3]: wire: ")
    assert res.stdout == ""


#: files configparser cannot parse, or that are not text
MALFORMED_INI = {
    "no-section-header": b"type = ribbon\n",
    "duplicate-section": b"[stack]\neps_ma = 9.8\n[stack]\neps_ms = 9.8\n",
    "duplicate-key": b"[stack]\neps_ma = 9.8\neps_ma = 9.7\n",
    "junk-line": b"[stack]\neps_ma = 9.8\njunk line here\n",
    "utf16-bom": b"\xff\xfe[\x00s\x00",
}


@pytest.mark.parametrize("content", MALFORMED_INI.values(),
                         ids=MALFORMED_INI.keys())
def test_malformed_ini_is_config_error(tmp_path, content):
    path = tmp_path / "bad.ini"
    path.write_bytes(content)
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error[2]: config: cannot read {path}: ")
    assert res.stdout == ""


@pytest.mark.parametrize("cmd, replace", [
    # tan_MA * p_MA overflows once C = 1e-300 fF inflates p_MA
    pytest.param(["analyze"], {"capacitance_ff = 100": "capacitance_ff = 1e-300",
                               "tan_ma = 0.005": "tan_ma = 1e11"},
                 id="analyze"),
    pytest.param(["sweep", "--param", "stack.tan_ms", "--range", "0.001:0.01",
                  "--steps", "2"],
                 {"capacitance_ff = 100": "capacitance_ff = 1e-300",
                  "tan_ma = 0.005": "tan_ma = 1e11"}, id="sweep"),
    # a subnormal capacitance makes the splittings overflow
    pytest.param(["tls"],
                 {"capacitance_ff = 100": "capacitance_ff = 4e-309"}, id="tls"),
])
def test_non_finite_result_is_numerical_error(tmp_path, cmd, replace):
    text = TABLE_CONFIG
    for old, new in replace.items():
        text = text.replace(old, new)
    path = tmp_path / "tiny_c.ini"
    path.write_text(text)
    res = run_cli(cmd[0], "--config", str(path), *cmd[1:])
    assert res.returncode == 3
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[3]: ")
    assert "inf" not in res.stdout and "nan" not in res.stdout
    if cmd[0] != "tls":
        assert res.stdout == ""


@pytest.mark.parametrize("cmd", [
    ["analyze"],
    ["sweep", "--param", "stack.tan_ms", "--range", "0.001:0.01", "--steps",
     "2"],
])
def test_non_finite_result_names_structure_and_column(tmp_path, cmd):
    # the plate's loss_tangent is the first cell that overflows
    path = tmp_path / "tiny_c.ini"
    path.write_text(TABLE_CONFIG
                    .replace("capacitance_ff = 100", "capacitance_ff = 1e-300")
                    .replace("tan_ma = 0.005", "tan_ma = 1e11"))
    res = run_cli(cmd[0], "--config", str(path), *cmd[1:])
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        "error[3]: plate.loss_tangent: a result is not a finite number; the "
        "inputs are outside the range of a float"]
    assert res.stdout == ""


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_verify_rejects_bad_mesh_scale(scale):
    res = run_cli("verify", "--suite", "coax", "--mesh-scale", scale)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--mesh-scale" in res.stderr


@pytest.mark.parametrize("flag, count, extra", [
    ("--steps", "1000000000000",
     ["--param", "structure.wire.d_um", "--range", "10:50"]),
], ids=["sweep"])
def test_count_past_its_bound_is_config_error(table_config, flag, count,
                                              extra):
    # unchecked, the count was allocated for (7.28 TiB in linspace) and
    # the command exited 1 with a NumPy memory-error traceback
    res = run_cli("sweep", "--config", str(table_config), *extra, flag, count)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert f"argument {flag}: must be at most" in res.stderr


def test_tls_small_wire_area_is_numerical_error(tmp_path):
    # 4*d*half_width is under the 10 um^2 the 200-MHz spacing needs: fewer
    # than one splitting is expected at that spacing, which is no error
    path = tmp_path / "small_wire.ini"
    path.write_text("""
[structure.wire]
type = straight_wire
half_width_um = 0.069
d_um = 24.5
t_um = 0.1
""")
    res = run_cli("tls", "--config", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[1] == (
        "wire: largest observable splitting 1.72e+07 Hz (A = 1 um^2); none "
        "(total area 6.68e+00 um^2) at one-per-200-MHz spacing; expected "
        "count over span ~ 7")
    # at d = 3 um the whole face is under the 1 um^2 threshold too
    path.write_text(path.read_text().replace("d_um = 24.5", "d_um = 3"))
    res = run_cli("tls", "--config", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[1] == (
        "wire: largest observable splitting none (total area 7.84e-01 um^2) "
        "(A = 1 um^2); none (total area 7.84e-01 um^2) at one-per-200-MHz "
        "spacing; expected count over span ~ 1")
    # under a 2 um oxide the strongest patch alone covers 3.8 um^2, so
    # A = 1 um^2 reads that patch's splitting
    path.write_text("[stack]\nt_ms_nm = 2000\n[structure.wire]\n"
                    "type = straight_wire\nhalf_width_um = 5\nd_um = 500\n"
                    "t_um = 10\n")
    res = run_cli("tls", "--config", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[1] == (
        "wire: largest observable splitting 3.28e+05 Hz (A = 1 um^2); "
        "3.27e+05 Hz at one-per-200-MHz spacing; expected count over span "
        "~ 9702000")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", [("stack", "tan_ma"),
                                          ("structure.pads", "length_um")])
def test_analyze_rejects_non_finite_value(tmp_path, section, key, value):
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(TABLE_CONFIG)
    cp[section][key] = value
    path = tmp_path / "nonfinite.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    res = run_cli("analyze", "--config", str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert f"error[2]: {section}.{key}: not a finite number: {value!r}" \
        in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("suite, scale", [
    pytest.param("coax", "0.001", id="coax"),
    pytest.param("corner", "0.001", id="corner"),
    pytest.param("flat-wire", "0.001", id="flat-wire"),
    # one element: meshes and solves, but no element lies in the check window
    pytest.param("flat-wire", "0.005", id="flat-wire-0.005"),
])
def test_verify_too_coarse_mesh_is_numerical_error(suite, scale):
    res = run_cli("verify", "--suite", suite, "--mesh-scale", scale)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert res.stderr.count("error[3]:") == 1
    assert len(res.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error[3]: out of memory"),
    (MemoryError("Unable to allocate 1.47 GiB for an array"),
     "error[3]: out of memory: Unable to allocate 1.47 GiB for an array"),
])
def test_verify_out_of_memory_is_numerical_error(monkeypatch, capsys, exc,
                                                 line):
    # an allocation the host refuses, as a large --mesh-scale can ask for
    from surfloss import cli

    def refused(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_verify", refused)
    assert cli.main(["verify", "--suite", "coax", "--mesh-scale", "6"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [line]


IMPORT_GUARD = """\
import contextlib, io, json, sys
import surfloss.cli as cli

def loaded(*names):
    return sorted(n for n in names
                  if any(m == n or m.startswith(n + ".") for m in sys.modules))

cfg = sys.argv[1]
steps = [["import", 0, loaded("numpy", "scipy", "surfloss.bem",
                              "surfloss._quadpack", "dataclasses")]]
for argv in (["analyze", "--config", cfg],
             ["analyze", "--config", cfg, "--corner-split"],
             ["taper", "--config", cfg],
             ["sweep", "--config", cfg, "--param", "structure.wire.d_um",
              "--range", "10:50", "--steps", "3"],
             ["tls", "--config", cfg],
             ["verify", "--suite", "flat-coax"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(a for a in argv if a != cfg), code,
                  loaded("numpy", "scipy", "scipy.integrate",
                         "surfloss.bem", "surfloss._quadpack",
                         "dataclasses")])
print(json.dumps(steps))
"""


def test_each_command_loads_only_what_it_runs():
    # one fresh interpreter: importing the CLI loads no NumPy, SciPy,
    # solver package or quadrature; analyze runs on math alone, taper and
    # sweep add the pure-Python QUADPACK and neither NumPy nor SciPy, tls
    # adds NumPy, and verify loads the solver, but not SciPy's integrate
    # for flat-coax's voltage integral.  Only verify loads ``dataclasses``
    # (the solver's records): every record the design commands load is a
    # NamedTuple.  What a command loads stays loaded, so the commands that
    # load less run first.
    import os
    cfg = SRC.parent / "configs" / "transmon_100ff.ini"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    res = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(cfg)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout.splitlines()[-1])
    assert [step[:2] for step in steps] == [
        ["import", 0], ["analyze --config", 0],
        ["analyze --config --corner-split", 0], ["taper --config", 0],
        ["sweep --config --param structure.wire.d_um --range 10:50 "
         "--steps 3", 0],
        ["tls --config", 0],
        ["verify --suite flat-coax", 0]]
    loaded = [step[2] for step in steps]
    assert loaded[:3] == [[], [], []]
    assert loaded[3:6] == [["surfloss._quadpack"], ["surfloss._quadpack"],
                           ["numpy", "surfloss._quadpack"]]
    assert "surfloss.bem" in loaded[6] and "dataclasses" in loaded[6]
    assert "scipy.integrate" not in loaded[6]


def _count_quadratures(monkeypatch):
    """{quadrature name: calls}, counted from here on."""
    from surfloss import analytic
    counts = {}
    for name in ("straight_wire_energy_quadrature",
                 "tapered_wire_energy_quadrature"):
        counts[name] = 0

        def counted(*args, fn=getattr(analytic, name), name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(analytic, name, counted)
    return counts


def test_sweep_computes_each_wire_quadrature_once(monkeypatch, capsys):
    # a tan_ms sweep changes no wire key, so each of the two wires needs
    # one quadrature, not one per step; every row carries its value
    from surfloss import analytic, cli
    from surfloss.config import load_config
    cfg = str(SRC.parent / "configs" / "transmon_100ff.ini")
    counts = _count_quadratures(monkeypatch)
    assert cli.main(["sweep", "--config", cfg, "--param", "stack.tan_ms",
                     "--range", "0:0.01", "--steps", "20"]) == 0
    assert counts == {"straight_wire_energy_quadrature": 1,
                      "tapered_wire_energy_quadrature": 1}
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
    assert len(rows) == 21
    for spec in load_config(cfg).structures:
        quadrature = analytic.CLOSED_FORMS[type(spec)].wire_energy
        if quadrature:
            col = rows[0].index(f"{spec.label}.u_metal")
            assert {row[col] for row in rows[1:]} \
                == {format(quadrature(spec), ".12e")}


def test_taper_reads_its_two_report_slopes_from_the_scan(monkeypatch, capsys):
    # S = 0.28 and S = 0.16 are points of the 41-slope scan, so the report
    # takes their energies from it and taper makes only the optimizer's
    # quadratures: here 41 scan and 15 golden-section ones.  A change to
    # the scan or its cap that drops either slope fails here, not in
    # cmd_taper with a KeyError
    from surfloss import cli
    from surfloss.analytic import linspace
    from surfloss.geometry import MAX_TAPER_SLOPE
    assert {0.28, 0.16} <= set(linspace(0.05, MAX_TAPER_SLOPE, 41))
    cfg = str(SRC.parent / "configs" / "transmon_100ff.ini")
    counts = _count_quadratures(monkeypatch)
    assert cli.main(["taper", "--config", cfg]) == 0
    assert counts == {"straight_wire_energy_quadrature": 0,
                      "tapered_wire_energy_quadrature": 56}
    out = capsys.readouterr().out
    assert "energy at S=0.28: " in out and "energy at S=0.16: " in out


def test_sweep_of_one_wire_reuses_the_other_wires_quadrature(monkeypatch,
                                                             capsys):
    from surfloss import cli
    cfg = str(SRC.parent / "configs" / "transmon_100ff.ini")
    counts = _count_quadratures(monkeypatch)
    assert cli.main(["sweep", "--config", cfg, "--param",
                     "structure.wire.d_um", "--range", "10:50",
                     "--steps", "5"]) == 0
    assert counts == {"straight_wire_energy_quadrature": 5,
                      "tapered_wire_energy_quadrature": 1}


K_UNDERFLOW = """\
[stack]
t_ma_nm = 1e-170
t_ms_nm = 1e-170
t_sa_nm = 1e-170

[structure.pads]
type = {stype}
a_um = 1e-165
b_um = 100
length_um = 1000
t_um = 1e-166
"""


@pytest.mark.parametrize("stype", ["ribbon", "coplanar"])
def test_strip_whose_modulus_squared_underflows_is_analyzed(tmp_path, stype):
    # (a/b)^2 underflows to 0, where K'(a/b) is ln(4b/a), not ellipk(1),
    # which raises
    path = tmp_path / "design.ini"
    path.write_text(K_UNDERFLOW.format(stype=stype))
    res = run_cli("analyze", "--config", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines()[2].startswith("pads ")
