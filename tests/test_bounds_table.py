"""scripts/bounds_table.py: the CSV table and its exit codes."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from mubqct.security import lambda_exact

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bounds_table.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bounds_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(script, capsys, *argv):
    code = script.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [("--d", "12"), ("--d", "4,x"), ("--d", ","), ("--m", "0")],
    ids=["d-not-power-of-two", "d-not-integer", "d-empty", "m-zero"],
)
def test_bad_input_exits_1(script, capsys, argv):
    code, out, err = run_script(script, capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("--m", "x"), ("--d",), ("--q", "1")], ids=["m", "d", "q"])
def test_usage_error_exits_1(script, capsys, argv):
    code, out, err = run_script(script, capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ") and "error: " in err
    assert "Traceback" not in err


def test_usage_error_names_the_script(script, capsys):
    # run in process, sys.argv[0] is the test runner's, not the script's
    code, out, err = run_script(script, capsys, "--m", "x")
    assert code == 1
    assert out == ""
    assert err == (
        "usage: bounds_table.py [-h] [--d D] [--m M]\n"
        "bounds_table.py: error: argument --m: invalid int value: 'x'\n"
    )


def test_default_table(script, capsys):
    code, out, err = run_script(script, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(script.COLUMNS)
    assert len(lines) == 1 + 6
    rows = [dict(zip(script.COLUMNS, line.split(","))) for line in lines[1:]]
    assert [row["d"] for row in rows] == ["2", "4", "8", "16", "64", "1024"]
    for row in rows:
        # the exact lambda is a closed form, so every d gets the certified columns
        assert row["lambda_numeric"] == f"{lambda_exact(int(row['d'])):.10g}"
        assert row["pguess_certified"] != ""
    assert err == ""


def test_default_table_matches_pinned_digest(script, capsys):
    # re-pinned when the exact lambda filled the d = 64 and 1024 rows; the
    # rows d <= 16 are byte-identical to the earlier pin 21fee061..4bd7
    code, out, _ = run_script(script, capsys)
    assert code == 0
    digest = "d828737f9e0c44672be8bb04989a3a102a5e79c63fe2a1f2b8281c4fa9159c54"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
