"""Every module under ``repro`` imports, and verification stays light.

One subprocess, so nothing an earlier test imported can mask a broken
module: it imports ``repro.verify`` first and records whether scipy
came with it, then walks the whole package with
:func:`pkgutil.walk_packages` and imports every module it finds.
``repro.__main__`` is skipped: importing it runs the CLI.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = f"""
import importlib, json, pkgutil, sys, traceback
sys.path.insert(0, {SRC!r})
import repro.verify
scipy_with_verify = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import repro
errors = {{}}
def record(name):
    errors[name] = traceback.format_exc()
names = []
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=record):
    if info.name.endswith(".__main__"):
        continue
    names.append(info.name)
    try:
        importlib.import_module(info.name)
    except Exception:
        record(info.name)
print(json.dumps({{"scipy": scipy_with_verify, "names": names, "errors": errors}}))
"""


def test_every_repro_module_imports_and_verify_skips_scipy():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout)
    assert result["errors"] == {}
    assert result["scipy"] == []
    # The walk reached every subpackage, not just the top level.
    for package in ("compact", "lang", "layout", "multiplier", "obs", "pla",
                    "route", "service", "verify"):
        assert f"repro.{package}" in result["names"]
    assert "repro.verify.switchsim" in result["names"]
