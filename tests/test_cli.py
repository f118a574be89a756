"""CLI behavior: exit codes, the config echo, artifact formats, determinism.

All tests drive ``mubqct.cli.main`` in process so capsys can capture the
stdout/stderr split (JSON on stdout, `# config:` echo on stderr).
"""

import hashlib
import json
import math
import time

import pytest

from mubqct import cli, detection, mub, protocol
from mubqct.cli import DEFAULT_SEED, main
from mubqct.ratemodel import SWEEP_CSV_HEADER
from mubqct.security import helstrom_exact, lambda_exact

TRANSCRIPT_HEADER = "round,x,r,theta,outcome"
IDEAL_FLAGS = ("--eta", "1.0", "--visibility", "1.0", "--p-dark", "0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- mub-verify


def test_mub_verify_passes(capsys):
    code, out, err = run_cli(capsys, "mub-verify", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["format_version"] == 1
    assert report["passed"] is True
    assert report["max_unbiasedness_dev"] < 1e-9
    assert report["max_orthonormality_dev"] < 1e-9
    assert err.startswith("# config: cmd=mub-verify")
    assert "k=3" in err


@pytest.mark.parametrize("k", range(1, 9))
def test_mub_verify_certifies_every_k_exactly(capsys, k):
    code, out, _ = run_cli(capsys, "mub-verify", "--k", str(k))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["exact"] is True
    assert report["d"] == 2**k
    assert report["max_unbiasedness_dev"] == 0.0


def test_mub_verify_bad_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "mub-verify", "--k", "0")
    assert code == 1
    assert "error" in err
    code, _, err = run_cli(capsys, "mub-verify", "--k", "17")
    assert code == 1
    assert err == "error: k must be an integer in 1..16, got 17\n"


def test_mub_verify_certifies_k16_without_building(capsys):
    code, out, _ = run_cli(capsys, "mub-verify", "--k", "16")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["exact"] is True
    assert (report["d"], report["n_bases"]) == (65536, 65537)


def test_mub_verify_failed_certificate_exits_1_naming_its_check(capsys, monkeypatch):
    # no float fallback: nothing is built, at k <= 8 or beyond the build cap
    monkeypatch.setattr(mub, "_trace_form_failure", lambda tr2, tr4, perm: "Z4 form")
    for k in ("3", "9"):
        code, out, err = run_cli(capsys, "mub-verify", "--k", k)
        assert code == 1
        assert out == ""
        assert err == f"error: the trace tables of k = {k} fail the certificate's Z4 form check\n"


def test_mub_verify_missing_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "mub-verify")
    assert code == 1
    assert "error" in err


def test_mub_verify_unreachable_tol_exits_2(capsys):
    # float rounding leaves a ~1e-16 orthonormality deviation at k=1
    code, out, _ = run_cli(capsys, "mub-verify", "--k", "1", "--tol", "1e-18")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_mub_verify_nonpositive_tol_rejected(capsys):
    code, _, _ = run_cli(capsys, "mub-verify", "--k", "2", "--tol", "0")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("mub-verify", "--k", "2", "--tol", "nan"),
        ("mub-verify", "--k", "2", "--tol", "inf"),
        ("sweep", "--d", "4", "--L", "0:inf:1"),
        ("sweep", "--d", "4", "--L", "0:nan:1"),
        ("sweep", "--d", "4", "--L=-inf:0:1"),
        ("sweep", "--d", "4", "--L", "0:10:inf"),
    ],
    ids=["tol-nan", "tol-inf", "grid-stop-inf", "grid-stop-nan", "grid-start-inf", "grid-step-inf"],
)
def test_non_finite_flags_exit_1_with_a_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv, flag, name",
    [
        (("sweep", "--d", "16", "--L", "0:10:5"), "--alpha", "alpha_db_per_km"),
        (("simulate", "--d", "16", "--L", "50", "--rounds", "100"), "--alpha", "alpha_db_per_km"),
        (("simulate", "--d", "16", "--rounds", "100"), "--L", "length_km"),
        (("multiparty", "--parties", "2", "--d", "16", "--L", "50", "--rounds", "100"),
         "--alpha", "alpha_db_per_km"),
        (("oracle", "--d", "2", "--samples", "100"), "--alpha", "alpha_db_per_km"),
    ],
    ids=["sweep-alpha", "simulate-alpha", "simulate-L", "multiparty-alpha", "oracle-alpha"],
)
def test_non_finite_fiber_exits_1_naming_the_argument(capsys, argv, flag, name, value):
    # at L > 0 an infinite loss or length would give T = 0 and a silent run
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 1
    assert out == ""
    assert f"error: {name} must be finite" in err
    assert "Traceback" not in err


# -------------------------------------------------------------------- bounds


def test_bounds_with_oracle(capsys):
    code, out, err = run_cli(capsys, "bounds", "--d", "16", "--m", "1", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_used"] is True
    assert report["lambda_numeric"] == pytest.approx(1.7723635432250342, abs=1e-9)
    assert report["hmin_bits"] >= 0.0
    assert err.startswith("# config: cmd=bounds")


def test_bounds_large_d_without_oracle(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--d", "1024", "--m", "4")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_used"] is False
    assert report["lambda_numeric"] is None
    assert report["pguess_paper_multi"] > 0.5


def test_bounds_oracle_at_d1024_exits_0(capsys):
    # the exact lambda is a closed form: no dimension cap
    code, out, _ = run_cli(capsys, "bounds", "--d", "1024", "--m", "4", "--oracle")
    assert code == 0
    assert json.loads(out)["lambda_numeric"] == lambda_exact(1024)


# sha256 of `bounds` stdout, pinned while BoundsReport.to_dict still listed
# its keys by hand: the JSON key order is the dataclass field order
PINNED_BOUNDS = {
    "d16-m2-oracle": (
        ("--d", "16", "--m", "2", "--oracle"),
        "a56be39717629e54850b3f986f26b82568688315f4eaad6d64fa3de3918743a3",
    ),
    "d1024-m4": (
        ("--d", "1024", "--m", "4"),
        "4b3297deab6dfb5e3e01eb67b3ceeb11d4a1a2c66b9c6b3a8268c209a0b30633",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_BOUNDS))
def test_bounds_output_matches_pinned_digest(capsys, case):
    argv, digest = PINNED_BOUNDS[case]
    code, out, _ = run_cli(capsys, "bounds", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unsupported_format_version_rejected(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--d", "4", "--format-version", "2")
    assert code == 1


@pytest.mark.parametrize(
    "given, unrecognized",
    [(("--format-version", "1"), "--format-version 1"), (("--config", "run.cfg"), "--config")],
    ids=["flag", "config"],
)
def test_format_version_is_set_by_no_flag_or_config_key(capsys, given, unrecognized):
    # the schema version is the build's constant, echoed in every config and set by no
    # option; nor is there a config file to set it from
    code, out, err = run_cli(capsys, "bounds", "--d", "4", *given)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {unrecognized}" in err
    assert "Traceback" not in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("mubqct ")


# ------------------------------------------------------------ config + seeds


def _simulate_config(capsys, *extra):
    code, out, _ = run_cli(capsys, "simulate", "--d", "4", "--rounds", "50", *extra)
    assert code == 0
    return json.loads(out)["config"]


def test_seed_default(capsys):
    assert _simulate_config(capsys)["seed"] == str(DEFAULT_SEED)


def test_seed_ignores_the_environment(capsys, monkeypatch):
    # --seed comes from the flag or DEFAULT_SEED: no environment variable
    argv = ("simulate", "--d", "16", "--rounds", "100")
    _, without, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("MUBQCT_SEED", "555")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == without
    assert json.loads(out)["config"]["seed"] == str(DEFAULT_SEED)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sweep", "--d", "16", "--L", "0:10:5", "--bounds", "paper"), "--bounds paper"),
        (("simulate", "--d", "16", "--rou", "10"), "--rou"),
    ],
    ids=["bounds", "rou"],
)
def test_an_abbreviated_flag_exits_1(capsys, argv, flag):
    # argparse reads a unique prefix as the whole flag by default, so --bounds
    # would set --bounds-source; a flag is taken only as spelled in --help
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


# ---------------------------------------------------- rerun from the echo

RERUN_CASES = {
    "mub-verify": ("mub-verify", "--k", "3"),
    "bounds": ("bounds", "--d", "16", "--m", "2", "--oracle"),
    "sweep": ("sweep", "--d", "16,64", "--L", "0:20:10", "--profile", "ingaas_field"),
    "sweep-out": ("sweep", "--d", "16", "--L", "0:10:5", "--out", "rates.csv"),
    "simulate": ("simulate", "--d", "16", "--m", "2", "--L", "25", "--rounds", "200",
                 "--p-dark", "1e-4", "--out-transcript", "t.csv", "--out-summary", "s.json"),
    "simulate-poisson": ("simulate", "--d", "16", "--photon-statistics", "poisson", "--mu", "2",
                         "--allow-insecure-mu", "--rounds", "200"),
    "multiparty": ("multiparty", "--parties", "2", "--d", "16", "--m", "4", "--rounds", "200",
                   "--seed", "3", "--out-transcript", "t"),
    "oracle": ("oracle", "--d", "4", "--m", "2", "--samples", "1000", "--visibility", "0.9"),
}


def _argv_from_echo(echo: str) -> list[str]:
    """The flags that rerun a run, read back from its `# config:` line."""
    cmd, *items = echo.removeprefix("# config: ").split(" ")
    (commands,) = (a.choices for a in cli.build_parser()._actions if a.dest == "cmd")
    actions = {a.dest: a for a in commands[cmd.removeprefix("cmd=")]._actions}
    argv = [cmd.removeprefix("cmd=")]
    for key, value in (item.split("=", 1) for item in items):
        if key == "format_version":  # the build's constant: no flag sets it
            continue
        flag = actions[key].option_strings[0]
        if actions[key].nargs == 0:  # a switch
            argv += [flag] if value == "true" else []
        else:
            argv += [flag, value]
    return argv


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_a_run_reruns_from_its_config_echo(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)

    def run(argv):
        code, out, err = run_cli(capsys, *argv)
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        for path in tmp_path.iterdir():
            path.unlink()
        return code, out, err, files

    first = run(RERUN_CASES[case])
    assert first[0] == 0
    echo = next(line for line in (first[2] + first[1]).splitlines() if line.startswith("# config: "))
    assert run(_argv_from_echo(echo)) == first


# --------------------------------------------------------------------- sweep


def test_sweep_grid_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--d", "128,16384", "--L", "0:400:5", "--profile", "snspd_lab"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: cmd=sweep")
    assert lines[1] == SWEEP_CSV_HEADER
    assert len(lines) == 2 + 2 * 81
    assert lines[2].startswith("snspd_lab,128,0,")


def test_sweep_out_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "sweep", "--d", "4", "--L", "0:10:5", "--out", str(path))
    assert code == 0
    assert out == ""
    assert err.startswith("# config: cmd=sweep")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: cmd=sweep")
    assert lines[1] == SWEEP_CSV_HEADER
    assert len(lines) == 2 + 3


def test_sweep_unwritable_out_exits_4(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "table.csv"
    code, _, _ = run_cli(capsys, "sweep", "--d", "4", "--L", "0:10:5", "--out", str(path))
    assert code == 4


def test_sweep_bad_grid_exits_1(capsys):
    for grid in ("0:400", "10:0:5", "0:10:0"):
        code, _, _ = run_cli(capsys, "sweep", "--d", "4", "--L", grid)
        assert code == 1


def test_sweep_unknown_profile_exits_1(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--d", "4", "--L", "0:10:5", "--profile", "hotdog")
    assert code == 1


@pytest.mark.parametrize(
    "cmd",
    [["simulate", "--rounds", "10"], ["multiparty", "--parties", "2", "--rounds", "10"], ["oracle"]],
    ids=["simulate", "multiparty", "oracle"],
)
def test_unknown_detector_profile_is_a_usage_error(capsys, cmd):
    code, out, err = run_cli(capsys, cmd[0], "--d", "16", *cmd[1:], "--profile", "nope")
    assert code == 1
    assert out == ""
    assert "argument --profile: invalid choice: 'nope'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", ["0:1e9:1e-3", "0:1e308:1e-308"])
def test_sweep_grid_over_cell_cap_exits_3(capsys, grid):
    # 1e12 points, and an infinite count that floor() cannot take: both are
    # refused before the grid list is built
    code, out, err = run_cli(capsys, "sweep", "--d", "16", "--L", grid)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "capped at 2097152" in err
    assert "Traceback" not in err


def test_sweep_grid_cap_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_MAX_CELLS", 3)
    code, _, _ = run_cli(capsys, "sweep", "--d", "16", "--L", "0:10:5")
    assert code == 0
    code, _, err = run_cli(capsys, "sweep", "--d", "16", "--L", "0:15:5")
    assert code == 3
    assert err == "error: grid '0:15:5' has 4 points; a sweep is capped at 3 cells\n"


@pytest.mark.parametrize("d", [2**21, 2**64])
def test_sweep_beyond_the_copy_scan_cap_exits_3_at_once(capsys, d):
    # d = 2^64 would scan 4 294 705 159 copy counts; the cap is checked first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--d", f"16,{d}", "--L", "0:0:1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: the copy scan at d = {d} covers m = 1..")
    assert err.endswith("; the rate model is capped at 1024 copies\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--d", ","), ("--profile", ","), ("--profile", " ")])
def test_sweep_empty_list_exits_1(capsys, flag, value):
    argv = {"--d": "16", "--L": "0:10:5", "--profile": "snspd_lab", flag: value}
    code, out, err = run_cli(capsys, "sweep", *(tok for item in argv.items() for tok in item))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--d", "2,2"), ("--profile", "snspd_lab,snspd_lab")])
def test_sweep_repeated_entry_exits_1(capsys, flag, value):
    # each row would be printed twice
    argv = {"--d": "2", "--L": "0:2:1", "--profile": "snspd_lab", flag: value}
    code, out, err = run_cli(capsys, "sweep", *(tok for item in argv.items() for tok in item))
    assert code == 1
    assert out == ""
    assert err.startswith("error: sweep got ") and "more than once" in err


# ------------------------------------------------------------------ simulate


def test_simulate_outputs_are_byte_identical(capsys, tmp_path):
    transcript = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    argv = [
        "simulate", "--d", "16", "--m", "4", "--L", "50", "--rounds", "2000",
        "--seed", "7", "--profile", "snspd_lab",
        "--out-transcript", str(transcript), "--out-summary", str(summary),
    ]
    blobs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        blobs.append((transcript.read_bytes(), summary.read_bytes(), out))
    assert blobs[0] == blobs[1]


# Digests of the artifacts written by the build before the session driver,
# detection classifier and transcript writer were merged.  Outputs use
# relative paths, so the `# config:` line does not depend on tmp_path.  A
# numpy release that changes the Generator streams also changes these.
PINNED_ARTIFACTS = {
    "simulate_fixed": (
        ("simulate", "--d", "16", "--m", "4", "--L", "50", "--rounds", "2000", "--seed", "7"),
        {
            "t.csv": "bf10881a5824fccec8b93faa86ec931b479da2de6cbc310d72ab1ea77e18ed25",
            "s.json": "21aaee40e0b307e01a154f40923ccee3b68178f089b45f7ef8861573b552d0f1",
        },
    ),
    "simulate_poisson": (
        ("simulate", "--d", "1024", "--photon-statistics", "poisson", "--mu", "4",
         "--L", "50", "--rounds", "2000", "--seed", "7"),
        {
            "t.csv": "cf41f2b9506ca7ad4fd41e0517622ee699c071ae1cb6c0b2426cb515fe69df4d",
            # re-pinned when the analytic fields took the Poisson closed form
            # in place of the fixed-copy one at m = mu; the transcript is as it was
            "s.json": "7df2baa3c4bb8dbeacd38b259d97b680a0b0c00006a851e0bcba313e32fef061",
        },
    ),
    # p_dark = 0.1 puts a few rounds per party into the coin-resolved class
    "multiparty": (
        ("multiparty", "--parties", "3", "--d", "16", "--m", "6", "--L", "25",
         "--p-dark", "0.1", "--rounds", "2000", "--seed", "7"),
        {
            "t.csv.party0.csv": "f70e3e804815c3c377095e787f4df72fd070811c65f8d966a4ec64b7f7422201",
            "t.csv.party1.csv": "fb6f1a190d06e2026d3c5d69c59d28ab253fb07e1ebbccca2a2b063edf177291",
            "t.csv.party2.csv": "0ebb22473c4449deb5252a1a0d41caa390fea28f243385d1169b8ba84957f7b8",
            "s.json": "ebf002152939eebb54375466f35bc721f1c86680eade157b55e1e459d00309d3",
        },
    ),
}


# Digests at the scale of the session benchmark, written by the build before
# transcript rows were rendered from fixed-width digit slots: seven-digit
# round numbers and 31 transcript chunks per file.
PINNED_BENCHMARK_SCALE_ARTIFACTS = {
    "simulate_1e6": (
        ("simulate", "--d", "16", "--m", "4", "--L", "50", "--rounds", "1000000",
         "--seed", "7"),
        {
            "t.csv": "533ff055fd01ed8aaac1c3bb97177b80b63f70c6843cadfc028214c2833e4d47",
            "s.json": "541aa4496aada36201b854128923f45874f19d1eed102e9cd418d554a311fccf",
        },
    ),
    "multiparty_1e6": (
        ("multiparty", "--parties", "3", "--d", "16", "--m", "3", "--L", "25",
         "--rounds", "1000000", "--seed", "7"),
        {
            "t.csv.party0.csv": "c902bb7210de8582e5e39c5b3a9090a9ccb6aca6572c90286573e48cf20ceb09",
            "t.csv.party1.csv": "1de6e66d1419ea1d65331fc8a6e901ecaa53286274d247f24d1390524ab4f751",
            "t.csv.party2.csv": "c20cff7b3e55ebb884c764f0bf1a287f66e59385a250bcd405083df0358808bf",
            "s.json": "4b78dad0c891658df4e870f76bd25206e4208cfbe469e87722c811b1f021995a",
        },
    ),
}


def _artifact_digests(capsys, directory, argv) -> dict:
    code, _, _ = run_cli(capsys, *argv, "--out-transcript", "t.csv", "--out-summary", "s.json")
    assert code == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


@pytest.mark.parametrize("case", sorted(PINNED_ARTIFACTS))
def test_simulation_artifacts_match_pinned_digests(capsys, tmp_path, monkeypatch, case):
    argv, digests = PINNED_ARTIFACTS[case]
    monkeypatch.chdir(tmp_path)
    assert _artifact_digests(capsys, tmp_path, argv) == digests


@pytest.mark.parametrize("case", sorted(PINNED_ARTIFACTS))
def test_simulation_artifacts_match_pinned_digests_in_chunks_of_7(
    capsys, tmp_path, monkeypatch, case
):
    # draws and transcript rows in chunks of 7 give the same files
    monkeypatch.setattr(detection, "_CHUNK_ROWS", 7)
    argv, digests = PINNED_ARTIFACTS[case]
    monkeypatch.chdir(tmp_path)
    assert _artifact_digests(capsys, tmp_path, argv) == digests


def test_benchmark_scale_artifacts_match_pinned_digests(capsys, tmp_path, monkeypatch):
    for case, (argv, digests) in sorted(PINNED_BENCHMARK_SCALE_ARTIFACTS.items()):
        directory = tmp_path / case
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert _artifact_digests(capsys, directory, argv) == digests, case


def test_simulate_transcript_layout(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--d", "4", "--rounds", "40", *IDEAL_FLAGS,
        "--out-transcript", str(path),
    )
    assert code == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: cmd=simulate")
    assert lines[1] == TRANSCRIPT_HEADER
    assert len(lines) == 2 + 40
    assert lines[2].startswith("0,")


def test_simulate_summary_fields(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--d", "4", "--rounds", "500", *IDEAL_FLAGS)
    assert code == 0
    summary = json.loads(out)
    assert summary["n_rounds"] == 500
    assert summary["n_clicks"] == 500          # ideal detector: every round clicks
    assert summary["click_rate"] == 1.0
    assert summary["p_c_empirical"] == 1.0
    assert summary["p_c_analytic"] == 1.0
    assert summary["p_e_analytic"] == 0.0
    for key in ("z_click_rate", "z_p_c", "z_p_e"):
        assert key in summary


def test_simulate_z_scores_reasonable(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "16", "--m", "4", "--L", "50",
        "--rounds", "20000", "--profile", "snspd_lab", "--seed", "11",
    )
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["z_click_rate"]) < 5.0
    assert abs(summary["z_p_c"]) < 5.0
    assert abs(summary["z_p_e"]) < 5.0


@pytest.mark.parametrize("length, mu", [(0, 1), (0, 4), (50, 1), (50, 4)])
def test_simulate_poisson_z_scores_reasonable(capsys, length, mu):
    # the fixed-copy formula at m = mu read z_click_rate = -166 and -159
    # at L = 0 on 2e5 rounds of this seed: a Poisson source needs its own form
    code, out, _ = run_cli(
        capsys, "simulate", "--d", "1024", "--photon-statistics", "poisson",
        "--mu", str(mu), "--L", str(length), "--rounds", "400000", "--seed", "3",
    )
    assert code == 0
    summary = json.loads(out)
    assert abs(summary["z_click_rate"]) < 5.0
    assert abs(summary["z_p_c"]) < 5.0
    assert abs(summary["z_p_e"]) < 5.0


def test_simulate_poisson_budget_violation_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--d", "4", "--photon-statistics", "poisson", "--mu", "1.0",
        "--rounds", "10",
    )
    assert code == 1
    assert "mu" in err


@pytest.mark.parametrize("mu, extra", [("nan", ()), ("inf", ("--allow-insecure-mu",))])
def test_simulate_non_finite_mu_exits_1_naming_mu(capsys, mu, extra):
    # NaN fails every comparison, so it used to pass the photon-budget check
    code, out, err = run_cli(
        capsys, "simulate", "--d", "16", "--photon-statistics", "poisson", "--mu", mu,
        *extra, "--rounds", "10",
    )
    assert code == 1
    assert out == ""
    assert f"finite mu > 0, got {mu}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--m", str(2**32)),
        ("multiparty", "--parties", "2", "--m", str(2**33)),
        # beyond expm1's range in the closed forms' log branch
        ("simulate", "--m", str(2**63 - 1), "--L", "100"),
        ("simulate", "--photon-statistics", "poisson", "--mu", "1e12", "--allow-insecure-mu",
         "--L", "30"),
    ],
    ids=["simulate-2^32", "multiparty-2^33", "simulate-2^63-1", "poisson-mu-1e12"],
)
def test_sources_of_2_to_the_32_copies_and_more_run(capsys, argv):
    # numpy's binomial takes no uint64 counts, and expm1 overflows past 709.78
    code, out, err = run_cli(capsys, *argv, "--d", "16", "--rounds", "1000", *IDEAL_FLAGS)
    assert code == 0, err
    summaries = json.loads(out).get("parties") or [json.loads(out)]
    for summary in summaries:
        assert summary["n_clicks"] == 1000 and summary["p_c_analytic"] == 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--m", str(2**63)), f"m must be in [1, 2^63), got {2**63}"),
        (("multiparty", "--parties", "2", "--m", str(2**64)), "m must be in [1, 2^63)"),
        (("simulate", "--photon-statistics", "poisson", "--mu", "1e300", "--allow-insecure-mu"),
         "finite mu > 0, got 1e+300; numpy's Poisson sampler takes mu <= 9.22337e+18"),
    ],
    ids=["simulate-m", "multiparty-m", "poisson-mu"],
)
def test_sources_numpy_cannot_draw_exit_1_naming_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--d", "16", "--rounds", "10")
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "cmd", [("simulate",), ("multiparty", "--parties", "2", "--m", "2")], ids=["simulate", "multiparty"]
)
@pytest.mark.parametrize(
    "flags, option", [(("--mu", "4"), "mu"), (("--allow-insecure-mu",), "allow_insecure_mu")]
)
def test_poisson_options_under_fixed_statistics_exit_1_naming_the_option(capsys, cmd, flags, option):
    # fixed statistics never read them, so a run would echo a mu it ignored
    code, out, err = run_cli(capsys, *cmd, "--d", "16", "--rounds", "10", *flags)
    assert code == 1
    assert out == ""
    assert f"error: {option} applies to poisson photon statistics only" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cmd",
    [
        ("simulate",),
        ("simulate", "--photon-statistics", "poisson", "--mu", "1", "--allow-insecure-mu"),
        ("multiparty", "--parties", "2", "--m", "2"),
    ],
    ids=["simulate", "simulate-poisson", "multiparty"],
)
def test_a_run_without_click_mass_exits_1_and_writes_no_file(capsys, tmp_path, cmd):
    # no light arrives and no detector fires, so the closed forms are
    # undefined; the transcripts used to be written before they were evaluated
    code, out, err = run_cli(
        capsys, *cmd, "--d", "16", "--rounds", "1000", "--L", "1000000", "--p-dark", "0",
        "--out-transcript", str(tmp_path / "t.csv"), "--out-summary", str(tmp_path / "s.json"),
    )
    assert code == 1
    assert out == ""
    assert "error: no click mass" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_non_power_of_two_d_exits_1(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--d", "3", "--rounds", "10")
    assert code == 1


# ---------------------------------------------------------------- multiparty


def test_multiparty_summary_and_transcripts(capsys, tmp_path):
    base = tmp_path / "mp"
    summary_path = tmp_path / "mp.json"
    code, out, _ = run_cli(
        capsys, "multiparty", "--parties", "3", "--d", "16", "--m", "3",
        "--rounds", "200", "--seed", "5", *IDEAL_FLAGS,
        "--out-transcript", str(base), "--out-summary", str(summary_path),
    )
    assert code == 0
    result = json.loads(out)
    assert result["n_parties"] == 3
    assert result["copies_per_party"] == 1
    assert len(result["parties"]) == 3
    for p, party in enumerate(result["parties"]):
        assert party["party"] == p
        assert party["n_rounds"] == 200
        lines = (tmp_path / f"mp.party{p}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == TRANSCRIPT_HEADER
        assert len(lines) == 1 + 200
    assert json.loads(summary_path.read_text(encoding="utf-8")) == result


def test_multiparty_over_receiver_cap_exits_1(capsys):
    for parties, d, cap in ((9, 64, 8), (5, 16, 4)):
        code, out, err = run_cli(
            capsys, "multiparty", "--parties", str(parties), "--d", str(d), "--m", str(parties),
            "--rounds", "10",
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: n_parties = {parties} exceeds floor(sqrt(d)) = {cap}, a cap that rests on "
            "the paper bounds, which attacks beat at d >= 16\n"
        )


# -------------------------------------------------------------------- oracle


@pytest.mark.parametrize(
    "argv, layer, exc, message",
    [
        (
            ("simulate", "--d", "16", "--rounds", "1000000000000"),
            (protocol, "run_protocol"),
            MemoryError("Unable to allocate 931. GiB for an array"),
            "error: Unable to allocate 931. GiB for an array\n",
        ),
        (
            ("oracle", "--d", "2", "--samples", "1000000000000"),
            (detection, "mc_detection_stats"),
            MemoryError(),
            "error: out of memory\n",
        ),
    ],
    ids=["simulate", "oracle"],
)
def test_memory_error_exits_3(capsys, monkeypatch, argv, layer, exc, message):
    # a failed allocation, raised in process: whether a real one fails
    # depends on the host's overcommit policy.  Each subcommand imports its
    # layer when it runs, so the layer is patched in the module defining it.
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(*layer, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == message


@pytest.mark.parametrize("m", [4000, 10**8, 10**12])
def test_oracle_helstrom_cap_exits_3_before_forming_d_to_the_m(capsys, m):
    # 16^4000 has more digits than int-to-str converts; 16^(10^12) never finishes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--d", "16", "--m", str(m), "--samples", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert f"m = {m} copies at d = 16" in err and "capped at 1024 copies" in err


def test_oracle_builds_no_family(capsys, monkeypatch):
    def no_build(k):
        raise AssertionError("oracle reads lambda and Helstrom from closed forms")

    monkeypatch.setattr(mub, "build_mub_family", no_build)
    code, out, _ = run_cli(capsys, "oracle", "--d", "1024", "--m", "3", "--samples", "1000")
    assert code == 0
    ref = json.loads(out)
    assert ref["lambda_numeric"] == lambda_exact(1024)
    assert ref["helstrom_numeric"] == helstrom_exact(1024, 3)


def test_oracle_reference_values(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--d", "4", "--L", "0", *IDEAL_FLAGS,
        "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    ref = json.loads(out)
    assert ref["lambda_numeric"] == pytest.approx(2.0, abs=1e-9)
    assert ref["lambda_paper"] > 1.0
    assert ref["helstrom_numeric"] == pytest.approx(0.5 + 0.5 / math.sqrt(5.0), abs=1e-9)
    assert ref["detection_analytic"]["t"] == 1.0
    assert ref["detection_analytic"]["p_c"] == 1.0
    assert ref["detection_mc"]["n_samples"] == 20000
    assert ref["detection_mc"]["p_c"] == 1.0
    assert err.startswith("# config: cmd=oracle")
