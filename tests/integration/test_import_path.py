"""What a cold start imports.

perfbench's ``setup_s`` times interpreter start plus these imports, so
the start path loads only what every run needs:

- no entry module loads ``concurrent.futures`` (the batch paths run
  inline or on ``--shards`` processes, never on a thread pool);
- ``repro.core.study`` loads nothing from ``repro.service`` (the study
  shards partition by corpus index, not on the service hash ring);
- ``repro.cli`` defers every subcommand's imports to the subcommand,
  so it loads neither the study nor the service.

Each case imports one module into a fresh interpreter started with
``-S`` (no site-packages, whose ``.pth`` hooks could import anything).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

FORBIDDEN = {
    "repro.cli": ("concurrent", "repro.core.study", "repro.service"),
    "repro.core.checker": ("concurrent",),
    "repro.core.study": ("concurrent", "repro.service"),
}


def loaded_modules(module: str) -> list[str]:
    script = (f"import json, sys\nimport {module}\n"
              f"print(json.dumps(sorted(sys.modules)))")
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
           "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_start_path_loads_nothing_forbidden(module):
    loaded = loaded_modules(module)
    assert module in loaded
    leaked = [name for name in loaded
              for prefix in FORBIDDEN[module]
              if name == prefix or name.startswith(prefix + ".")]
    assert leaked == []
