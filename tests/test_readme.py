"""README.md: every python block and the config example run as written against the package."""

import re
from pathlib import Path

import pytest

from mubqct.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# config file examples: an ini block whose first line names its subcommand
CONFIGS = re.findall(r"^```ini\n(# (\S+) defaults\n.*?)^```$", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().err == ""


def test_readme_has_a_config_block():
    assert CONFIGS


@pytest.mark.parametrize("block, cmd", CONFIGS, ids=[cmd for _, cmd in CONFIGS])
def test_readme_config_block_runs_with_its_subcommand(block, cmd, tmp_path, capsys):
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    code = main([cmd, "--d", "16", "--config", str(path)])
    assert code == 0, capsys.readouterr().err
