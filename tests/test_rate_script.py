"""scripts/rate_vs_distance.py: shared grid parser, exit codes, stderr report."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from mubqct import DETECTOR_PRESETS, max_distance, sweep, sweep_rows_to_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rate_vs_distance.py"

# The ratecurve benchmark's grid.  The script's CSV has no config line, so
# its digest does not depend on --out.
BENCH_D = ",".join(str(2**k) for k in range(1, 17))
BENCH_L = "0:400:2"
BENCH_RATES_SHA256 = {
    "ingaas_field": "c0e6a054e1231a01b21746ea9e0e67e0328d3c0c9acae117c4b8641737bcbb07",
    "snspd_lab": "1916f11ffb4aac7e40f0d6e70e6a3a39600b8e4a106c04b6238b586316bd3915",
}
# L_max in km for d = 2 .. 65536, as printed, and the fitted slope line
BENCH_REACH = {
    "ingaas_field": (
        "0.0 0.0 0.0 0.7 7.1 12.0 20.7 27.7 34.9 42.1 49.4 56.8 64.2 71.7 79.1 86.6",
        "# distance extension: 41.9 km per 100x in d",
    ),
    "snspd_lab": (
        "0.0 1.5 27.6 39.2 45.7 50.7 59.3 66.3 73.5 80.7 88.1 95.5 102.9 110.4 117.8 125.3",
        "# distance extension: 53.6 km per 100x in d",
    ),
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("rate_vs_distance", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(script, capsys, *argv):
    code = script.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("grid", ["0:10:0", "10:0:5", "0:10", "a:b:c", "0:10:-1"])
def test_bad_grid_exits_1(script, capsys, grid):
    code, out, err = run_script(script, capsys, "--d", "16", "--L", grid)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["0:1e9:1e-3", "0:1e308:1e-308"])
def test_grid_over_cell_cap_exits_3(script, capsys, grid):
    code, out, err = run_script(script, capsys, "--d", "16", "--L", grid)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "capped at 2097152" in err
    assert "Traceback" not in err


def test_memory_error_exits_3(script, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(script, "sweep", out_of_memory)
    code, out, err = run_script(script, capsys, "--d", "16", "--L", "0:10:5")
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("ds", ["15", "16,x", ","])
def test_bad_dimensions_exit_1(script, capsys, ds):
    code, _, err = run_script(script, capsys, "--d", ds, "--L", "0:10:5")
    assert code == 1
    assert err.startswith("error: ")


def test_repeated_dimension_exits_1(script, capsys):
    # the reach slope would be fitted on a repeated point
    code, out, err = run_script(script, capsys, "--d", "2,2")
    assert code == 1
    assert out == ""
    assert err == "error: sweep got 2 more than once in ds\n"


@pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
def test_non_finite_fiber_loss_exits_1(script, capsys, alpha):
    code, out, err = run_script(script, capsys, "--d", "16", "--L", "0:10:5", f"--alpha={alpha}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: alpha_db_per_km must be finite and > 0")


def test_certified_at_d32_exits_0(script, capsys):
    # the exact lambda is a closed form: the certified source has no dimension cap
    code, out, _ = run_script(
        script, capsys, "--d", "32", "--L", "0:20:5", "--bounds-source", "certified"
    )
    assert code == 0
    rows = sweep([32], [0.0, 5.0, 10.0, 15.0, 20.0], ["snspd_lab"], bounds_source="certified")
    assert out == sweep_rows_to_csv(rows)


def test_table_and_first_distance_label(script, capsys):
    code, out, err = run_script(script, capsys, "--d", "128,16", "--L", "5:20:5")
    assert code == 0
    rows = sweep([128, 16], [5.0, 10.0, 15.0, 20.0], ["snspd_lab"])
    assert out == sweep_rows_to_csv(rows)
    lines = err.splitlines()
    for d, line in zip((128, 16), lines[1:3]):
        at_first = next(r for r in rows if r.d == d and r.length_km == 5.0)
        assert line.startswith(f"# d={d}: K(5 km)={at_first.key_rate_bits:.4f} bits/round, ")
    assert "K(0" not in err


def test_reach_uses_the_fiber_loss(script, capsys):
    code, out, err = run_script(script, capsys, "--d", "64", "--L", "0:10:5", "--alpha", "0.17")
    assert code == 0
    assert out == sweep_rows_to_csv(sweep([64], [0.0, 5.0, 10.0], ["snspd_lab"], 0.17))
    reach = max_distance(64, DETECTOR_PRESETS["snspd_lab"], 0.17).distance_km
    assert f"{reach:.1f}" == "59.6"
    assert f"L_max={reach:.1f} km" in err.splitlines()[1]


@pytest.mark.parametrize("profile", sorted(BENCH_RATES_SHA256))
def test_benchmark_grid_outputs_are_pinned(script, capsys, tmp_path, profile):
    out = tmp_path / f"rates_{profile}.csv"
    code, _, err = run_script(
        script, capsys, "--d", BENCH_D, "--L", BENCH_L, "--profile", profile, "--out", str(out)
    )
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_RATES_SHA256[profile]
    lines = err.splitlines()
    reach, slope = BENCH_REACH[profile]
    assert len(lines) == 18 and lines[0] == f"# profile={profile} bounds=paper"
    assert " ".join(re.search(r"L_max=(\S+) km$", line).group(1) for line in lines[1:17]) == reach
    assert lines[17] == slope
