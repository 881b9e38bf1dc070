"""Every `jacobiflow` command in the README's command-line section runs, and
so does its library example."""

import re
import shlex
from pathlib import Path

import pytest

from jacobiflow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("jacobiflow ")]


def test_section_has_every_subcommand():
    assert sorted({argv[0] for argv in _commands()}) == ["coeffs", "integral", "sweep", "verify"]


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_command_exits_zero(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out or "--out" in argv


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
