"""Command-line behavior: exit codes, determinism, file outputs."""

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


def test_tls_command(table_config, tmp_path):
    out = tmp_path / "tlsout"
    res = run_cli("tls", "--config", str(table_config), "--out", str(out),
                  "--sections", "20000")
    assert res.returncode == 0, res.stderr
    assert "parallel plate" in res.stdout
    assert "one-per-200-MHz" in res.stdout
    csv_path = out / "tls_pads.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s_max_hz,cumulative_area_um2"
    assert len(lines) > 100


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_verify_rejects_bad_mesh_scale(scale):
    res = run_cli("verify", "--suite", "coax", "--mesh-scale", scale)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--mesh-scale" in res.stderr


def test_tls_rejects_too_few_sections(table_config):
    res = run_cli("tls", "--config", str(table_config), "--sections", "5")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--sections" in res.stderr


def test_tls_small_wire_area_is_numerical_error(tmp_path):
    # 4*d*half_width is under the 10 um^2 the 200-MHz spacing needs
    path = tmp_path / "small_wire.ini"
    path.write_text("""
[structure.wire]
type = straight_wire
half_width_um = 0.069
d_um = 24.5
t_um = 0.1
""")
    res = run_cli("tls", "--config", str(path), "--sections", "20000")
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1
    assert "outside the tabulated range" in res.stderr
