"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    converged, iterations, accuracy = capsys.readouterr().out.split()
    assert converged == "True" and int(iterations) >= 1
    assert float(accuracy) > 0.9
