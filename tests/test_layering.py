"""Module layering: the physics layers never import the protocol simulation,
and importing the package, or running a subcommand, loads no module it
does not call."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mubqct

PACKAGE_DIR = Path(mubqct.__file__).parent


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = f"mubqct.{node.module or ''}".rstrip(".") if node.level else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["security", "detection"])
def test_module_does_not_import_protocol(module):
    imported = _imported_modules(PACKAGE_DIR / f"{module}.py")
    assert "mubqct.protocol" not in imported


def test_protocol_does_not_import_mub():
    # the simulator draws outcomes from their law and forms no state, so it
    # needs no family, not even for a type annotation
    imported = _imported_modules(PACKAGE_DIR / "protocol.py")
    assert not any(name == "mubqct.mub" or name.startswith("mubqct.mub.") for name in imported)


# numpy loads numpy.fft lazily, and privacy_amplify reaches it only when
# called; the rate layer and the transcript writer run serially and need
# no process or thread pool.  The package loads its submodules on first
# access, so each is loaded here before the check.
@pytest.mark.parametrize(
    "module", ["numpy.fft", "multiprocessing", "concurrent.futures", "concurrent.futures.process"]
)
def test_import_does_not_load(module):
    code = (
        "import sys, mubqct\n"
        "for name in mubqct._SUBMODULES:\n"
        "    getattr(mubqct, name)\n"
        f"sys.exit({module!r} in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr or f"import mubqct loaded {module}"


def test_mub_verify_does_not_load_numpy_ma():
    # np.unique imports numpy.ma on first use, about 14 ms of every
    # mub-verify process; the certificate counts distinct masks without it
    code = (
        "import contextlib, io, sys\n"
        "from mubqct.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['mub-verify', '--k', '3']) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr or "mub-verify loaded numpy.ma"


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter with the package on the path; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# prints the mubqct submodules loaded so far, and whether numpy is loaded
PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps([sorted(m.removeprefix('mubqct.') for m in sys.modules"
    " if m.startswith('mubqct.')), 'numpy' in sys.modules]))\n"
)


def _cli_loads(argv: list[str]) -> list:
    """[the mubqct submodules, whether numpy] a fresh `mubqct <argv>` loads."""
    code = (
        "import contextlib, io\n"
        "from mubqct.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n" + PRINT_LOADED
    )
    return json.loads(_fresh(code))


# each subcommand loads the layers it calls and no others: argv, then the
# submodules it loads and whether it loads numpy; only the closed-form
# bounds run without numpy
LOAD_SETS = {
    "bounds": (["bounds", "--d", "16", "--m", "1"], ["cli", "errors", "models", "security"], False),
    "bounds-oracle": (
        ["bounds", "--d", "16", "--m", "1", "--oracle"],
        ["cli", "errors", "models", "security"],
        False,
    ),
    "oracle": (
        ["oracle", "--d", "16", "--m", "3", "--samples", "1000"],
        ["cli", "detection", "errors", "models", "security"],
        True,
    ),
    "mub-verify": (["mub-verify", "--k", "3"], ["cli", "errors", "galois", "models", "mub"], True),
    "simulate": (
        ["simulate", "--d", "16", "--rounds", "1000"],
        ["cli", "detection", "errors", "models", "protocol"],
        True,
    ),
    "multiparty": (
        ["multiparty", "--parties", "2", "--d", "16", "--m", "2", "--rounds", "1000"],
        ["cli", "detection", "errors", "models", "protocol"],
        True,
    ),
    "sweep": (
        ["sweep", "--d", "16", "--L", "0:10:5"],
        ["cli", "detection", "errors", "models", "ratemodel", "security"],
        True,
    ),
}


@pytest.mark.parametrize("command", LOAD_SETS)
def test_subcommand_load_set(command):
    argv, modules, numpy = LOAD_SETS[command]
    assert _cli_loads(argv) == [modules, numpy]


def test_oracle_does_not_load_mub():
    # lambda and Helstrom are closed forms, so no family is built or imported
    modules, _ = _cli_loads(["oracle", "--d", "1024", "--m", "3", "--samples", "1000"])
    assert "mub" not in modules and "galois" not in modules


def test_import_loads_no_submodule():
    assert json.loads(_fresh("import mubqct\n" + PRINT_LOADED)) == [[], False]


# the package's exports, by defining module
EXPORTS = {
    "models": ["DETECTOR_PRESETS", "ChannelModel", "DetectorModel", "Dimension", "transmittance"],
    "detection": [
        "DetectionStats", "McDetectionStats", "conditional_entropy_xy", "detection_stats",
        "mc_detection_stats", "poisson_detection_stats",
    ],
    "errors": ["CapabilityError", "ConstraintError", "DegenerateModeError"],
    "mub": [
        "MubFamily", "VerificationReport", "build_mub_family", "certify_build", "half_projector",
        "verify_unbiasedness",
    ],
    "protocol": [
        "MultipartyResult", "ProtocolParams", "ProtocolTranscript", "multiparty_run",
        "privacy_amplify", "run_protocol",
    ],
    "ratemodel": [
        "MaxDistanceResult", "RatePoint", "SweepRow", "coherent_mu_max", "key_rate",
        "m_scan_limit", "max_distance", "optimize_m", "sweep", "sweep_rows_to_csv",
    ],
    "security": [
        "BoundsReport", "EveSimResult", "bounds_report", "helstrom_exact",
        "helstrom_multi_bound", "helstrom_numeric", "helstrom_paper_single", "hmin_bits",
        "iacc_bound", "lambda_exact", "lambda_numeric", "lambda_paper_bound", "pguess",
        "pguess_certified", "pguess_multi_paper", "pguess_paper", "pguess_single_paper",
        "pinsker_delta", "simulate_eve_random_basis",
    ],
}


def test_exports_resolve_to_their_definitions():
    code = (
        "import importlib, inspect, json, sys, mubqct\n"
        f"exports = {EXPORTS!r}\n"
        "assert mubqct.__all__ == sorted(n for names in exports.values() for n in names)\n"
        "assert set(mubqct.__all__) <= set(dir(mubqct))\n"
        "for module, names in exports.items():\n"
        "    mod = importlib.import_module('mubqct.' + module)\n"
        "    for name in names:\n"
        "        obj = getattr(mubqct, name)\n"
        "        assert obj is getattr(mod, name), name\n"
        "        if inspect.isclass(obj) or inspect.isfunction(obj):\n"
        "            assert obj.__module__ == mod.__name__, name\n"
        "from mubqct import DETECTOR_PRESETS, Dimension, sweep\n"
        "assert sweep is mubqct.ratemodel.sweep\n"
        # the plain-data models keep every import path they had
        "from mubqct import detection, models, mub, protocol, ratemodel, security\n"
        "assert detection.DETECTOR_PRESETS is DETECTOR_PRESETS is ratemodel.DETECTOR_PRESETS\n"
        "assert mub.Dimension is Dimension is security.Dimension is protocol.Dimension\n"
        "assert detection.ChannelModel is models.ChannelModel is protocol.ChannelModel\n"
        "assert detection.DetectorModel is models.DetectorModel\n"
        "assert detection.transmittance is models.transmittance\n"
        "assert ratemodel.SWEEP_MAX_CELLS == models.SWEEP_MAX_CELLS\n"
        "assert security.BOUNDS_SOURCES is models.BOUNDS_SOURCES\n"
        "try:\n"
        "    mubqct.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('mubqct.no_such_name resolved')\n"
    )
    _fresh(code)


@pytest.mark.parametrize(
    "module", ["cli", "detection", "errors", "galois", "models", "mub", "protocol", "ratemodel", "security"]
)
def test_submodule_resolves_after_bare_import(module):
    code = f"import mubqct, sys\nassert mubqct.{module} is sys.modules['mubqct.{module}']\n"
    _fresh(code)
