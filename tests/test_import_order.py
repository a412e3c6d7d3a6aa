"""Guard import-order independence of the observability and sim layers.

``repro.sim.trace`` imports ``repro.obs``, and ``repro.obs`` holds the
statistics every experiment prints, so a module-level import in the
wrong direction would only fail when some module happens to be
imported first.  One fresh interpreter imports each module under
``repro.obs`` and ``repro.sim`` as the very first ``repro`` module.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib, pkgutil, sys

import repro.obs, repro.sim

modules = []
for package in (repro.obs, repro.sim):
    modules.append(package.__name__)
    modules += [f"{package.__name__}.{info.name}"
                for info in pkgutil.iter_modules(package.__path__)]
for name in modules:
    for loaded in [key for key in sys.modules
                   if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
    print(name)
"""


def test_every_obs_and_sim_module_imports_first():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    imported = result.stdout.split()
    assert "repro.obs.stats" in imported
    assert "repro.sim.trace" in imported
