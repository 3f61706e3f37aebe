"""The runtime needs nothing beyond the standard library.

A fresh interpreter started with ``-S`` (no site-packages) and only
``src`` on its path imports every ``repro`` module and runs one full
``PPChecker.check``.  networkx and numpy are test-only: neither may be
imported by the program, so a cold start never pays for them.  The
check leaves nothing behind in ``$HOME`` either: the ESA knowledge
base compiles in memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.corpus.appstore import CorpusSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

SCRIPT = """
import importlib, json, pkgutil, sys

import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)

from repro.core.checker import PPChecker
from repro.corpus.appstore import CorpusSpec

spec = CorpusSpec()
report = PPChecker(lib_policy_source=spec.lib_policy).check(
    spec.app(0).bundle)
print(json.dumps({
    "modules": names,
    "package": report.package,
    "heavy": sorted(m for m in sys.modules
                    if m.split(".")[0] in ("networkx", "numpy")),
}))
"""


def test_every_module_imports_and_checks_without_site_packages(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
           "PYTHONHASHSEED": "0", "HOME": str(home)}
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(home.iterdir()) == []
    result = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.android.graph" in result["modules"]
    assert "repro.cli" in result["modules"]
    assert result["package"] == CorpusSpec().package_for(0)
    assert result["heavy"] == []
