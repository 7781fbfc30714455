"""Every demo, README's library quickstart and README's ``zeno`` command
lines run to completion against the public API."""

import re
import runpy
import shlex
import shutil
from pathlib import Path

import pytest

from zenosim import save_matrix, three_level
from zenosim.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMANDS = [line.split("#")[0].strip()
            for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("zeno ")]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, capsys):
    # run a copy: some demos write their output next to their own file
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_both_zeno_commands():
    assert {c.split()[1] for c in COMMANDS} == {"run", "sectors"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    # the command runs as written from a directory holding the scenarios and coupling.txt
    argv = shlex.split(command)[1:]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenarios").symlink_to(ROOT / "scenarios")
    save_matrix(tmp_path / "coupling.txt", three_level(1.0, 1.0).h_meas)
    if argv[0] == "run":            # the last --out wins
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out
