"""Module layering: the physics layers never import the protocol simulation,
and importing the package loads no module it only needs when called."""

import ast
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


# numpy loads numpy.fft lazily, and privacy_amplify reaches it only when
# called; the rate layer and the transcript writer run serially and need
# no process or thread pool
@pytest.mark.parametrize(
    "module", ["numpy.fft", "multiprocessing", "concurrent.futures", "concurrent.futures.process"]
)
def test_import_does_not_load(module):
    code = f"import sys, mubqct; sys.exit({module!r} in sys.modules)"
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
