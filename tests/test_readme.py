"""The README's quick starts run as written."""

import re
import shlex
import types
from pathlib import Path

import mbss
from mbss import cli

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    converged, iterations, accuracy = capsys.readouterr().out.split()
    assert converged == "True" and int(iterations) >= 1
    assert float(accuracy) > 0.9


def test_package_exports_the_quick_start_names():
    text = README.read_text(encoding="utf-8")
    imported = re.search(r"^from mbss import (.*)$", text, re.M).group(1)
    public = {
        name for name, value in vars(mbss).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name.strip() for name in imported.split(",")}


def test_cli_blocks_run(tmp_path, monkeypatch):
    """Every ``mbss`` line of the README's bash blocks exits 0, in order, from a
    directory where the repository's ``data/`` is visible."""
    text = README.read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```bash\n(.*?)```", text, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("mbss ")
    ]
    assert len(commands) == 7
    (tmp_path / "data").symlink_to(README.parent / "data")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
