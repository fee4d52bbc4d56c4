"""The package's runtime dependencies are what pyproject.toml declares."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mbss

# Run in a fresh interpreter: the test process has already imported pytest,
# hypothesis and whatever they pull in.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import mbss
for info in pkgutil.iter_modules(mbss.__path__):
    importlib.import_module("mbss." + info.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_importing_every_module_loads_no_third_party_package_but_numpy():
    src = str(Path(mbss.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(proc.stdout) == ["mbss", "numpy"]
