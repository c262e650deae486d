"""Check an installed ``repro`` the way a user gets it.

Run after ``pip install .`` (no extras), with no ``PYTHONPATH`` and from
a directory outside the source checkout::

    cd "$(mktemp -d)" && python /path/to/checkout/.github/clean_install_check.py

It fails unless ``repro`` resolves to the installed copy, every module
under ``repro`` imports (``pkgutil.walk_packages``; ``repro.__main__``
is left to the console script, since importing it runs the CLI), the ``repro``
console script answers ``--version``, and one ``--compact xy`` flow over
the multiplier example shipped inside the package exits 0 with both
pass lines printed and a CIF that reads back.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def main() -> int:
    import repro

    location = Path(repro.__file__).resolve()
    if CHECKOUT in location.parents:
        raise SystemExit(f"repro imported from the checkout ({location}), not the install")

    modules = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it runs the CLI; the console script covers it
        importlib.import_module(info.name)
        modules.append(info.name)
    print(f"imported {len(modules)} modules from {location.parent}")

    version = subprocess.run(
        ["repro", "--version"], check=True, capture_output=True, text=True
    )
    print(version.stdout.strip())

    from repro.layout import read_cif
    from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "mult.sample").write_text(MULTIPLIER_SAMPLE)
        (work / "mult.design").write_text(DESIGN_FILE)
        body = PARAMETER_FILE.split("# Multiplier parameter file (after Appendix C).\n")[1]
        body = body.replace("xsize=6", "xsize=4").replace("ysize=6", "ysize=4")
        output = work / "mult.cif"
        parameters = work / "mult.par"
        parameters.write_text(
            f".example_file:{work / 'mult.sample'}\n"
            f".concept_file:{work / 'mult.design'}\n"
            f".output_file:{output}\n"
            ".output_cell:thewholething\n" + body
        )
        flow = subprocess.run(
            ["repro", str(parameters), "--compact", "xy"],
            capture_output=True,
            text=True,
            env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
        )
        print(flow.stdout, end="")
        if flow.returncode != 0:
            print(flow.stderr, end="", file=sys.stderr)
            raise SystemExit(f"--compact xy flow exited {flow.returncode}")
        for axis in "xy":
            if f"compacted {axis}: width" not in flow.stdout:
                raise SystemExit(f"no 'compacted {axis}' line in the flow output")
        if not any(cell.boxes for cell in read_cif(str(output))):
            raise SystemExit("the flow's CIF read back without geometry")
    print("clean install check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
