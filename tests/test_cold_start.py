"""Cold start: importing ``hyperred.cli`` loads only ``hyperred`` and what
src's own standard-library imports load.

Each CLI job is one process, so import time is paid per job.  The guard
pins the standard-library modules src imports; a fresh interpreter imports
those first, then ``hyperred.cli``, and every module the second import adds
must be ``hyperred`` or one of its submodules.  ``dataclasses``, which pulls
in ``inspect``, ``ast``, ``dis`` and ``tokenize``, is not among them.

Run it alone with ``PYTHONPATH=src python -m pytest -q tests/test_cold_start.py``;
``python -X importtime -c "import hyperred.cli"`` shows where the time goes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the top-level standard-library modules src/hyperred imports
SRC_STDLIB = ("__future__", "argparse", "collections", "fractions", "functools", "json", "math",
              "operator", "re", "sys", "types", "typing")

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

PROBE = f"""
import json, sys
import {", ".join(SRC_STDLIB)}
before = set(sys.modules)
import hyperred.cli
print(json.dumps({{"added": sorted(set(sys.modules) - before),
                   "heavy": [m for m in {HEAVY!r} if m in sys.modules]}}))
"""


def test_src_imports_only_the_pinned_stdlib_modules():
    """A new standard-library import in src is a cold-start cost: it must be added
    to SRC_STDLIB here on purpose, where the probe below accounts for it."""
    roots = set()
    for path in sorted((SRC / "hyperred").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert roots <= set(SRC_STDLIB), sorted(roots - set(SRC_STDLIB))


def test_importing_the_cli_loads_nothing_beyond_hyperred():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    probe = json.loads(out)
    assert "hyperred.cli" in probe["added"]
    assert [m for m in probe["added"] if m.split(".")[0] != "hyperred"] == []
    assert probe["heavy"] == []
