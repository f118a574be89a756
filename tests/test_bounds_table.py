"""scripts/bounds_table.py: the CSV table and its exit codes."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

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


def test_default_table(script, capsys):
    code, out, err = run_script(script, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(script.COLUMNS)
    assert len(lines) == 1 + 6
    rows = [dict(zip(script.COLUMNS, line.split(","))) for line in lines[1:]]
    assert [row["d"] for row in rows] == ["2", "4", "8", "16", "64", "1024"]
    for row in rows:
        # the exact lambda is offered up to d = 16; above it the closed form stands alone
        certified = int(row["d"]) <= 16
        assert (row["pguess_certified"] != "") == certified
        assert (row["lambda_numeric"] != "") == certified
    assert "d=64: oracle skipped" in err


def test_default_table_matches_pinned_digest(script, capsys):
    # pinned while BoundsReport.to_dict still listed its keys by hand
    code, out, _ = run_script(script, capsys)
    assert code == 0
    digest = "21fee06119afeae8207cfba14e9385ba5f829b3c539dd719cb052b7415db4bd7"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
