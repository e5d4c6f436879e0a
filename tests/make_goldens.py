"""Regenerate the golden reports under tests/data and print what moved.

    PYTHONPATH=src python tests/make_goldens.py

Writes, each in the report serialization:

- report_all_seed7.json: `weylnet --suite all --seed 7`;
- report_all_seed7_16384.json: the same at `--grid-points 16384`;
- report_algebra_seed1.json: `--suite S --seed 1` for S in chiral, nets,
  psi-T and weyl-axioms, keyed by suite.

For each file it prints one line per value that differs from the file it
replaces, as `path: old -> new`, so a change that moves a check value says
which one and by how much.  The tests in test_cli.py compare the reports a
run writes with these files byte for byte.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from weylnet import suites
from weylnet.funcspace import Grid

DATA = Path(__file__).parent / "data"
ALGEBRA_SUITES = ("chiral", "nets", "psi-T", "weyl-axioms")


def _grid(points: int) -> Grid:
    return Grid(Fraction(-32), Fraction(32), points)


def goldens() -> dict:
    """File name -> report dict, as the CLI would write it."""
    return {
        "report_all_seed7.json": suites.run_suite("all", 7, grid=_grid(4096)),
        "report_all_seed7_16384.json": suites.run_suite("all", 7, grid=_grid(16384)),
        "report_algebra_seed1.json": {
            name: suites.run_suite(name, 1, grid=_grid(4096)) for name in ALGEBRA_SUITES
        },
    }


def moved(old, new, path=""):
    """Yield (path, old, new) for every leaf that differs; a missing side is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from moved(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            # a check is named by its name, not its index
            label = a.get("name", i) if isinstance(a, dict) else i
            yield from moved(a, b, f"{path}[{label}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def main() -> int:
    for name, report in goldens().items():
        path = DATA / name
        text = suites.serialize_report(report)
        old = json.loads(path.read_text()) if path.exists() else None
        changes = list(moved(old, report)) if old is not None else []
        path.write_text(text)
        state = "new" if old is None else f"{len(changes)} value(s) moved"
        print(f"{name}: {state}")
        for where, a, b in changes:
            print(f"  {where}: {a!r} -> {b!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
