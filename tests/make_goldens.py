"""Regenerate the golden files under tests/data and print what moved.

    PYTHONPATH=src python tests/make_goldens.py           # rewrite the files
    PYTHONPATH=src python tests/make_goldens.py --check   # write nothing

`GOLDENS` maps each file to the `weylnet` argv of the runs it holds.  A
file of one run holds that report; report_algebra_seed1.json holds
`--suite S --seed 1` for S in chiral, nets, psi-T and weyl-axioms, keyed by
suite.  The ladder covers `--suite all` at seeds 7 and 1 on 1024, 4096 and
16384 points and at seed 7 on 1025 points (the odd-n branches of the
quadrature and the spectral pair) and with `--window 12` and `--window 16`.  Some of
these runs fail checks today: their files hold the `fail` and `error`
records, so they detect change and do not claim a pass.
report_all_seed7_shared.json is `--suite all --seed 7` on
tests/data/shared.registry, whose pairs share functions; its report names
that path as given, relative to the root of the checkout, so every run
here starts there.

`ADHOC` holds the exit code and stdout of each argv in `COMMANDS`: the
README's ad-hoc commands and `state gram` for every kind at seed 5.

For each file it prints one line per value that differs from the file it
replaces, as `path: old -> new`, so a change that moves a check value says
which one and by how much; an ad-hoc line is named by its command and line
number.  test_cli.py runs each argv through the CLI and compares the report
or stdout it writes with these files byte for byte.

With `--check` it writes nothing: it prints the same lines and exits 1 if
any file would change (its bytes differ, or it is missing), else 0.  A change
that claims byte-identical reports shows it with this one command, and
tests/data stays as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from weylnet import cli, suites
from weylnet.funcspace import Grid

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
SHARED = "tests/data/shared.registry"  # relative to ROOT
ALGEBRA_SUITES = ("chiral", "nets", "psi-T", "weyl-axioms")
ALL = ["--suite", "all"]

GOLDENS = {
    "report_all_seed7.json": ALL + ["--seed", "7"],
    "report_all_seed7_1024.json": ALL + ["--seed", "7", "--grid-points", "1024"],
    "report_all_seed7_1025.json": ALL + ["--seed", "7", "--grid-points", "1025"],
    "report_all_seed7_16384.json": ALL + ["--seed", "7", "--grid-points", "16384"],
    "report_all_seed7_window12.json": ALL + ["--seed", "7", "--window", "12"],
    "report_all_seed7_window16.json": ALL + ["--seed", "7", "--window", "16"],
    "report_all_seed1_1024.json": ALL + ["--seed", "1", "--grid-points", "1024"],
    "report_all_seed1_16384.json": ALL + ["--seed", "1", "--grid-points", "16384"],
    "report_algebra_seed1.json": {s: ["--suite", s, "--seed", "1"] for s in ALGEBRA_SUITES},
    "report_all_seed7_shared.json": ALL + ["--seed", "7", "--registry", SHARED],
}

ADHOC = "adhoc_commands.json"
COMMANDS = [
    ["state", "eval", "--kind", "field_f", "--element", "1+0i * W[aC] - W[0]"],
    ["state", "gram", "--kind", "fock_a", "--count", "6"],
    ["chiral", "roundtrip", "--combo", "aC + 3/2 c0"],
    ["chiral", "decompose", "--combo", "q0"],
    ["net", "locality", "--kind", "C", "--i1=-17/8:-7/8", "--i2=7/8:17/8"],
    ["net", "locality", "--kind", "C", "--i1=-17/8:-7/8:0", "--i2=7/8:17/8"],
    ["net", "sector", "--element", "q0", "--interval=-9/8:9/8", "--apply", "W[c1]"],
    ["net", "gauge", "--n", "0.3", "--r=-1.2", "--apply", "W[T]"],
    ["net", "diagram", "--regularizer", "T0", "--interval=-9/8:9/8"],
] + [["--seed", "5", "state", "gram", "--kind", kind, "--count", "6"]
     for kind in ("fock_a", "nonregular_elementary", "field_f", "product_p", "chiral_vacuum")]


def runs(name: str) -> dict:
    """The runs a golden file holds, as key -> argv; None keys a lone run."""
    argv = GOLDENS[name]
    return argv if isinstance(argv, dict) else {None: argv}


def report(argv) -> dict:
    """The report `weylnet argv` writes, as a dict."""
    args = cli.build_parser().parse_args(argv)
    grid = Grid(-args.window, args.window, args.grid_points)
    return suites.run_suite(args.suite, args.seed, registry_path=args.registry, grid=grid)


def golden(name: str) -> dict:
    """File name -> report dict, as the CLI would write it."""
    reports = {key: report(argv) for key, argv in runs(name).items()}
    return reports[None] if None in reports else reports


def adhoc() -> str:
    """The text of the ad-hoc file: one JSON line per argv of `COMMANDS`,
    with the exit code and stdout of `weylnet argv`."""
    lines = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        lines.append(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue()}))
    return "[\n" + ",\n".join(f"  {line}" for line in lines) + "\n]\n"


def values(name: str, text: str):
    """A file's values as `moved` compares them: a report as it is, the
    ad-hoc file keyed by command with its stdout split into lines."""
    data = json.loads(text)
    if name != ADHOC:
        return data
    return {" ".join(c["argv"]): {"exit": c["exit"], "stdout": c["stdout"].splitlines()}
            for c in data}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any file would change")
    check = parser.parse_args(argv).check
    os.chdir(ROOT)
    stale, names = [], [*GOLDENS, ADHOC]
    for name in names:
        path = DATA / name
        text = adhoc() if name == ADHOC else suites.serialize_report(golden(name))
        old_text = path.read_text() if path.exists() else None
        old = values(name, old_text) if old_text is not None else None
        changes = list(moved(old, values(name, text))) if old is not None else []
        if old_text != text:
            stale.append(name)
        if not check:
            path.write_text(text)
        state = "new" if old is None else f"{len(changes)} value(s) moved"
        print(f"{name}: {state}")
        for where, a, b in changes:
            print(f"  {where}: {a!r} -> {b!r}")
    if check:
        print(f"{len(stale)} of {len(names)} file(s) would change" + "".join(f"\n  {n}" for n in stale))
        return 1 if stale else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
