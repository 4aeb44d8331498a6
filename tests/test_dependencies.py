"""The library has no runtime dependencies: importing every szpit module
loads nothing outside the package and the standard library."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Site hooks load modules at start-up, so only what the imports add counts.
PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_importing_every_module_loads_only_the_standard_library():
    modules = sorted((ROOT / "src" / "szpit").glob("*.py"))
    names = ["szpit"] + [f"szpit.{p.stem}" for p in modules if p.stem != "__init__"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *names],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "szpit" in loaded
    assert [m for m in loaded if m != "szpit" and m not in sys.stdlib_module_names] == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
