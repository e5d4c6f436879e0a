import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from weylnet import cli, suites
from weylnet.errors import NotInDomain
from weylnet.funcspace import Grid
from weylnet.registry import load_registry
from weylnet.states import STATES
from weylnet.symplectic import ZERO
from weylnet.weyl import CrossedProduct, Staged, max_coeff_distance, weyl_mul


def run(argv):
    return cli.main(argv)


def test_suite_run_writes_deterministic_report(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["--suite", "gns", "--seed", "3", "--out", str(out1)]) == 0
    assert run(["--suite", "gns", "--seed", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["schema"] == suites.SCHEMA
    assert report["passed"] is True
    assert report["seed"] == 3
    assert "_duration" not in report
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout


def test_suite_report_to_stdout(capsys):
    assert run(["--suite", "psi-T", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # stdout holds the report and nothing else
    names = {c["name"] for s in report["sections"] for c in s["checks"]}
    assert "sigma-splitting" in names
    assert captured.err.startswith("suite psi-T: ")
    assert "checks passed" in captured.err


def test_exit_2_on_missing_registry(capsys):
    assert run(["--registry", "/nonexistent.registry", "--suite", "gns"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_on_bad_registry(tmp_path, capsys):
    bad = tmp_path / "bad.registry"
    bad.write_text("fn broken nonsense a=b\n")
    assert run(["--registry", str(bad), "--suite", "gns"]) == 2


def test_exit_2_without_suite_or_command(capsys):
    assert run([]) == 2


def test_exit_1_on_failing_check(monkeypatch, capsys, tmp_path):
    forced = [replace(c, tolerance=-1.0) if c.name == "trace-property" else c for c in suites.CHECKS]
    monkeypatch.setattr(suites, "CHECKS", tuple(forced))
    out = tmp_path / "report.json"
    assert run(["--suite", "gns", "--out", str(out)]) == 1
    (section,) = json.loads(out.read_text())["sections"]
    assert [c["name"] for c in section["checks"] if c["status"] != "pass"] == ["trace-property"]


def test_state_eval_matches_library(capsys):
    import math

    from weylnet.registry import load_registry

    assert run(["state", "eval", "--kind", "field_f", "--element", "1+0i * W[aC]"]) == 0
    printed = capsys.readouterr().out.strip()
    value = complex(printed.replace("i", "j"))
    space = load_registry()
    expected = math.exp(-0.25 * space.fock_norm_sq(space.generator("aC")))
    assert abs(value - expected) < 1e-12


def test_state_eval_bad_literal(capsys):
    assert run(["state", "eval", "--kind", "field_f", "--element", "garbage"]) == 2


def test_state_gram_all_kinds(capsys):
    for kind in STATES:
        assert run(["state", "gram", "--kind", kind, "--count", "4"]) == 0
        assert "PSD" in capsys.readouterr().out


def test_chiral_commands(capsys):
    assert run(["chiral", "roundtrip", "--combo", "aC + 3/2 c0"]) == 0
    assert "roundtrip" in capsys.readouterr().out
    assert run(["chiral", "decompose", "--combo", "T"]) == 0
    out = capsys.readouterr().out
    assert "c_plus 1" in out and "c_minus 0" in out


def test_net_locality_rational_endpoints(capsys):
    argv = ["net", "locality", "--kind", "C", "--i1=-17/8:-7/8", "--i2=7/8:17/8"]
    assert run(argv) == 0
    assert "PASS" in capsys.readouterr().out


def test_net_locality_bad_interval(capsys):
    argv = ["net", "locality", "--kind", "A", "--i1=oops", "--i2=1:2"]
    assert run(argv) == 2


def test_net_sector_and_gauge(capsys):
    assert run(["net", "sector", "--element", "q0", "--interval=-9/8:9/8", "--apply", "W[c1]"]) == 0
    assert "W[" in capsys.readouterr().out
    assert run(["net", "gauge", "--n", "0.5", "--apply", "W[T]"]) == 0


def test_net_diagram(capsys):
    assert run(["net", "diagram", "--regularizer", "T0", "--interval=-9/8:9/8"]) == 0
    assert "diagram: PASS" in capsys.readouterr().out


def test_suite_isolation_matches_combined():
    combined = suites.run_suite("all", 11)
    alone = suites.run_suite("gns", 11)
    sec_combined = next(s for s in combined["sections"] if s["name"] == "gns")
    sec_alone = alone["sections"][0]
    assert sec_combined == sec_alone


def exit_code(argv):
    """cli.main's return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


NON_UTF8 = "<non-UTF-8 registry>"
UNKNOWN_KEY = "<registry with an unknown key>"


def _non_utf8_registry(tmp_path) -> str:
    """A registry path whose file holds a 0xff byte in a comment."""
    path = tmp_path / "bad-byte.registry"
    path.write_bytes(b"fn one constant value=1\n# \xff\npair n1 f0=0 f1=one\n")
    return str(path)


def _unknown_key_registry(tmp_path) -> str:
    """A registry path whose Gaussian misspells `center`."""
    path = tmp_path / "unknown-key.registry"
    path.write_text("fn g gaussian-hermite order=2 centre=12\npair g f0=0 f1=g\n")
    return str(path)


NAN_HERMITE = "<registry whose Hermite functions overflow>"
SWAPPED_DEFAULT = "<default registry with overflowing hgC2 and hgC3>"
KINK_FREE = "<registry without compact kinks>"
DEFAULT_TEXT = (Path(cli.__file__).parent / "data" / "default.registry").read_text()
# order 160 and 161 overflow the Hermite recursion: the samples are NaN
HG160 = "fn hgC2 gaussian-hermite order=160 center=12"
HG161 = "fn hgC3 gaussian-hermite order=161 center=12"


def _nan_hermite_registry(tmp_path) -> str:
    path = tmp_path / "nan-hermite.registry"
    path.write_text(f"{HG161.replace('hgC3', 'h')}\n{HG160.replace('hgC2', 'g')}\n"
                    "pair aX f0=h f1=g\n")
    return str(path)


def _swapped_default_registry(tmp_path) -> str:
    path = tmp_path / "swapped.registry"
    lines = DEFAULT_TEXT.splitlines()
    lines = [HG160 if l.startswith("fn hgC2 ") else HG161 if l.startswith("fn hgC3 ") else l
             for l in lines]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _kink_free_registry(tmp_path) -> str:
    """tka/dtka, hgC2/hgC3 and one: every function loads on any window."""
    path = tmp_path / "kink-free.registry"
    path.write_text("\n".join(
        l for l in DEFAULT_TEXT.splitlines()
        if l.split()[:2] in (["fn", "tka"], ["fn", "dtka"], ["fn", "hgC2"], ["fn", "hgC3"],
                             ["fn", "one"], ["pair", "T"], ["pair", "aC"], ["pair", "n1"])
    ) + "\n")
    return str(path)


REGISTRIES = {
    NON_UTF8: _non_utf8_registry, UNKNOWN_KEY: _unknown_key_registry,
    NAN_HERMITE: _nan_hermite_registry, SWAPPED_DEFAULT: _swapped_default_registry,
    KINK_FREE: _kink_free_registry,
}
NARROW_LOCALITY = ["net", "locality", "--kind", "F", "--i1=-17/8:-7/8", "--i2=7/8:17/8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "eval", "--kind", "field_f", "--element", "nan * W[aC]"],
        ["state", "eval", "--kind", "field_f", "--element", "1e400 * W[aC]"],
        ["state", "eval", "--kind", "field_f", "--element", "W[1/0 aC]"],
        ["state", "eval", "--kind", "field_f", "--element", "1e308 * W[aC] + 1e308 * W[aC]"],
        ["--window", "abc", "state", "eval", "--kind", "field_f", "--element", "W[aC]"],
        # a stray bracket is a bad term, not a cut that drops the rest of the combo
        ["chiral", "roundtrip", "--combo", "aC]+W[c0"],
        ["chiral", "decompose", "--combo", "q0]-W[c0"],
        # an empty combination is not the identity, which is written W[0]
        ["chiral", "roundtrip", "--combo", ""],
        ["chiral", "roundtrip", "--combo", "   "],
        ["state", "eval", "--kind", "field_f", "--element", "W[]"],
        ["--registry", NON_UTF8, "--suite", "nets"],
        # a stacked or dangling sign is refused, not dropped
        ["chiral", "decompose", "--combo", "T-+T"],
        ["state", "eval", "--kind", "field_f", "--element", "W[aC] -"],
        ["--registry", UNKNOWN_KEY, "--suite", "nets"],
        # tk3's support [2, 4] leaves the window [-2, 2]
        ["--window", "2", "state", "eval", "--kind", "field_f", "--element", "W[aC]"],
        # a registry function with NaN samples is refused at its line
        ["--registry", NAN_HERMITE, "state", "eval", "--kind", "fock_a", "--element", "W[aX]"],
        ["--registry", SWAPPED_DEFAULT, "--suite", "all"],
        # a window whose float step is 0 is a bad grid, whatever the registry
        ["--window", "1e-400", "--registry", KINK_FREE, "state", "eval", "--kind",
         "product_p", "--element", "W[aC]"],
        ["--window", "1e-400", "--registry", KINK_FREE] + NARROW_LOCALITY,
        ["--window", "1e-400", "--suite", "nets"],
    ],
    ids=["nan", "overflow", "zero-denominator", "overflowing-sum", "bad-window",
         "combo-roundtrip", "combo-decompose", "empty-combo", "blank-combo",
         "empty-element-key", "non-utf8-registry", "stacked-sign", "dangling-sign",
         "unknown-registry-key", "kink-outside-window", "nan-hermite-registry",
         "nan-hermite-default", "zero-step-eval", "zero-step-locality", "zero-step-suite"],
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    argv = [REGISTRIES[arg](tmp_path) if arg in REGISTRIES else arg for arg in argv]
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--window", "1e400", "--suite", "nets"],
        ["--window", "1e5000", "--suite", "nets"],
        ["--window", "1e-300", "--suite", "nets"],
        ["--window", "1e-400", "--suite", "nets"],
        ["--window", "1e-20", "--suite", "nets"],
        ["--window", "1e-300", "--registry", KINK_FREE] + NARROW_LOCALITY,
        ["--window", "1e-400", "--registry", KINK_FREE, "state", "eval", "--kind",
         "product_p", "--element", "W[aC]"],
        ["--registry", NAN_HERMITE, "state", "eval", "--kind", "fock_a", "--element", "W[aX]"],
        ["--registry", SWAPPED_DEFAULT, "--suite", "all"],
    ],
)
def test_bad_window_or_function_is_one_short_line(argv, tmp_path, capsys):
    """Exit 2 with one stderr line of at most 200 bytes and no warning:
    window ends print in short form, however many digits they have."""
    argv = [REGISTRIES[arg](tmp_path) if arg in REGISTRIES else arg for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200, err


def test_window_too_narrow_for_a_float_is_a_bad_grid(tmp_path, capsys):
    """A float step of 0, or one whose inverse square overflows (the Fourier
    weights square it), is the grid's fault; a narrow window above that
    reaches the registry."""
    assert run(["--registry", _kink_free_registry(tmp_path)] + NARROW_LOCALITY) == 0
    assert capsys.readouterr().out == "kind F defect 0.000e+00 PASS\n"
    for window in ("1e-400", "1e-300", "1e-160"):
        assert run(["--window", window, "--suite", "nets"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad grid window/size: -{window}..{window} n=4096\n"
        )
    assert run(["--window", "1e-150", "--suite", "nets"]) == 2
    assert capsys.readouterr().err == (
        "error: line 9: compact kink support [-1, 1] leaves the window [-1e-150, 1e-150]\n"
    )


def test_registry_function_with_nan_samples_names_its_line(tmp_path, capsys):
    path = _nan_hermite_registry(tmp_path)
    assert run(["--registry", path, "--suite", "nets"]) == 2
    assert capsys.readouterr().err == "error: line 1: function has a non-finite sample\n"
    # order 159 overflows only in the closed-form derivative
    Path(path).write_text("fn h gaussian-hermite order=159 center=12\npair aX f0=h f1=0\n")
    assert run(["--registry", path, "--suite", "nets"]) == 2
    assert capsys.readouterr().err == "error: line 1: derivative has a non-finite sample\n"


def test_kink_outside_the_window_names_its_line(capsys):
    assert run(["--window", "5/2", "--suite", "chiral"]) == 2
    assert capsys.readouterr().err == (
        "error: line 11: compact kink support [2, 4] leaves the window [-5/2, 5/2]\n"
    )
    for window in ("16", "32"):
        assert run(["--window", window, "state", "eval", "--kind", "field_f",
                    "--element", "W[aC]"]) == 0


def test_window_wider_than_a_float_is_a_bad_grid(capsys):
    """A window whose width overflows a float is the grid's fault, refused
    before the registry is read; one that fits reaches the registry."""
    assert run(["--window", "1e400", "--suite", "nets"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad grid window/size: -1") and "line" not in err
    assert run(["--window", "1e308", "--suite", "nets"]) == 2  # the width 2e308 overflows
    assert capsys.readouterr().err.startswith("error: bad grid window/size:")
    assert run(["--window", "1e300", "--suite", "nets"]) == 2
    assert capsys.readouterr().err.startswith("error: line 7: width 1 below 4*step")


def test_non_utf8_registry_names_the_path(tmp_path, capsys):
    path = _non_utf8_registry(tmp_path)
    assert run(["--registry", path, "--suite", "nets"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text (byte 0xff at offset 26)\n"
    )


def test_empty_combination_names_the_identity(capsys):
    assert run(["state", "eval", "--kind", "field_f", "--element", "W[aC] + W[]"]) == 2
    assert capsys.readouterr().err == (
        "error: empty generator combination; write W[0] for the identity\n"
    )


def test_python_dash_m_matches_in_process(capsys):
    argv = ["--suite", "nets", "--seed", "7"]
    assert run(argv) == 0
    in_process = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "weylnet", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process


def test_unknown_generator_names_the_registered_ones(capsys):
    assert run(["state", "eval", "--kind", "field_f", "--element", "W[nope]"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown generator 'nope'; registered: T, T0, T3, aL, aC, aR, n1," in err


def test_nonregular_state_on_cancelling_slot1_atoms(capsys):
    # q0 - T0 = (-dtk0, 0): on the charge plane, with charge -1
    argv = ["state", "eval", "--kind", "nonregular_elementary", "--element", "W[q0 - T0]"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "0+0i\n"
    argv[-1] = "W[q0 - T0 + c0]"  # charge 0
    assert run(argv) == 0
    assert capsys.readouterr().out == "1+0i\n"


def _close(got: float, want: float) -> bool:
    """A golden number: 0.0 exactly, any other value to a relative 1e-6."""
    return got == want if want == 0.0 else math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-12)


def _assert_report_matches(got, want, path="report"):
    """Structure, strings and counts exactly; floats to isclose, 0.0 exactly."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and path.endswith(".value") and want != 0.0:
        assert isinstance(got, float), path
        assert _close(got, want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_golden_report_all_seed_7(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["--suite", "all", "--seed", "7", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "report_all_seed7.json"
    _assert_report_matches(json.loads(out.read_text()), json.loads(golden.read_text()))


def test_golden_algebra_reports_seed_1_are_byte_identical(tmp_path, capsys):
    """The algebra suites at seed 1 write the same bytes as the file was made
    from: every value, bit for bit, not only to a relative 1e-6.  The file
    holds both reports, keyed by suite, in the report serialization."""
    text = (Path(__file__).parent / "data" / "report_algebra_seed1.json").read_text()
    golden = json.loads(text)
    assert suites.serialize_report(golden) == text
    assert sorted(golden) == ["psi-T", "weyl-axioms"]
    for suite, report in golden.items():
        out = tmp_path / f"{suite}.json"
        assert run(["--suite", suite, "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text() == suites.serialize_report(report), suite


ADHOC = json.loads((Path(__file__).parent / "data" / "adhoc_commands.json").read_text())
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)")


@pytest.mark.parametrize(
    "case", ADHOC, ids=lambda case: re.sub(r"\W+", "-", " ".join(case["argv"])).strip("-")
)
def test_adhoc_command_matches_golden(case, capsys):
    """The README's ad-hoc commands and `state gram` for every kind at seed 5:
    exit code and words exactly, numbers as the golden report compares them."""
    assert run(case["argv"]) == case["exit"]
    got, want = (NUMBER.split(text) for text in (capsys.readouterr().out, case["stdout"]))
    assert got[0::2] == want[0::2]
    for g, w in zip(got[1::2], want[1::2]):
        assert _close(float(g), float(w)), (g, w)


def _subparser(parser, *path):
    for name in path:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


@pytest.mark.parametrize("action", ["eval", "gram"])
def test_kind_choices_are_the_state_table(action, capsys):
    parser = _subparser(cli.build_parser(), "state", action)
    kind = next(a for a in parser._actions if a.dest == "kind")
    assert kind.choices == sorted(STATES)
    argv = ["state", action, "--kind", "nope"]
    if action == "eval":
        argv += ["--element", "W[aC]"]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert all(name in err for name in STATES)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gram_count_below_one_exits_2(count, capsys):
    assert exit_code(["state", "gram", "--kind", "fock_a", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --count: count must be at least 1, got {count}" in captured.err


LOCALITY = {
    "default": ["net", "locality", "--kind", "C", "--i1=-17/8:-7/8", "--i2=7/8:17/8"],
    # fails on the coarse grid (defect 3.6e-4 against 1e-6)
    "coarse": ["--grid-points", "1024", "--window", "16",
               "net", "locality", "--kind", "B", "--i1=-21:-4", "--i2=4:21"],
}


@pytest.mark.parametrize("value", ["abc", "1000"])
@pytest.mark.parametrize("case", sorted(LOCALITY))
def test_tolerance_takes_no_environment_variable(case, value, monkeypatch, capsys):
    argv = LOCALITY[case]
    monkeypatch.delenv("WEYLNET_TOL_SCALE", raising=False)
    unset = (run(argv), capsys.readouterr())
    monkeypatch.setenv("WEYLNET_TOL_SCALE", value)
    assert (run(argv), capsys.readouterr()) == unset


def test_report_grid_is_the_space_grid():
    space = load_registry(None, Grid(Fraction(-16), Fraction(16), 1024))
    report = suites.run_suite("gns", 1, space=space)
    assert report["grid"] == {"points": 1024, "window": ["-16", "16"]}


def test_report_registry_is_the_space_source(tmp_path):
    path = tmp_path / "my.registry"
    path.write_text(
        (Path(suites.__file__).parent / "data" / "default.registry").read_text()
    )
    report = suites.run_suite("gns", 1, space=load_registry(str(path)))
    assert report["registry"] == str(path)
    assert suites.run_suite("gns", 1, space=load_registry())["registry"] == "default"
    assert suites.run_suite("gns", 1, registry_path=str(path))["registry"] == str(path)


@pytest.mark.parametrize(
    "flags, errors",
    [
        (
            ["--window", "16"],
            {
                "gram-min-eigenvalue": "NotInDomain",
                "product-state-coincidence": "NotInDomain",
                "fock-norm-mover-identity": "NotInDomain",
            },
        ),
        (
            ["--grid-points", "1024"],
            {"soliton-phases": "NotInDomain", "splitting-diagram": "RegularizerNotContained"},
        ),
    ],
    ids=["window-16", "grid-points-1024"],
)
def test_raising_suite_becomes_an_error_record(flags, errors, tmp_path, capsys):
    """A raising check is its own error record; its suite's other checks still run."""
    out = tmp_path / "report.json"
    assert run(flags + ["--suite", "all", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["sections"]] == list(suites.SUITES)
    got = {}
    for section in report["sections"]:
        names = [c.name for c in suites.CHECKS if c.suite == section["name"]]
        assert [c["name"] for c in section["checks"]] == names
        for record in section["checks"]:
            if record["status"] == "error":
                assert sorted(record) == ["error", "message", "name", "status"] and record["message"]
                assert section["passed"] is False
                got[record["name"]] = record["error"]
    assert got == errors
    counts = report["counts"]
    n_pass = sum(c["status"] == "pass" for s in report["sections"] for c in s["checks"])
    assert counts["total"] == len(suites.CHECKS)
    assert counts["pass"] == n_pass and counts["fail"] == counts["total"] - n_pass


def test_raising_shared_loop_errors_each_check_that_reads_it(monkeypatch):
    calls = []

    def raising(*args):
        calls.append(args)
        raise NotInDomain("forced")

    monkeypatch.setattr(suites, "cocycle_defect", raising)
    (section,) = suites.run_suite("weyl-axioms", 7)["sections"]
    records = {c["name"]: c for c in section["checks"]}
    axioms = [
        "product-associativity",
        "product-unitarity",
        "involution-antihomomorphism",
        "exchange-relation",
        "phase-cocycle-identity",
    ]
    assert list(records) == axioms + ["staged-product-agreement"]
    for name in axioms:
        assert records[name] == {
            "name": name, "status": "error", "error": "NotInDomain", "message": "forced"
        }
    assert records["staged-product-agreement"]["status"] in ("pass", "fail")
    assert len(calls) == 1  # the loop ran once for all five readers


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--seed", "-1", "--suite", "gns"], "argument --seed: seed must be at least 0, got -1"),
        (["--seed", "-3", "state", "gram", "--kind", "fock_a"], "seed must be at least 0, got -3"),
        (["net", "gauge", "--n", "nan", "--apply", "W[T]"], "argument --n: must be a finite number"),
        (["net", "gauge", "--n", "inf", "--apply", "W[T]"], "argument --n: must be a finite number"),
        (["net", "gauge", "--r=-inf", "--apply", "W[T]"], "argument --r: must be a finite number"),
        (["net", "gauge", "--r", "nan", "--apply", "W[T]"], "argument --r: must be a finite number"),
    ],
    ids=["seed-suite", "seed-gram", "gauge-n-nan", "gauge-n-inf", "gauge-r-inf", "gauge-r-nan"],
)
def test_out_of_range_number_flag_exits_2(argv, cause, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cause in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, tolerance, argv, verdict",
    [
        ("gram-min-eigenvalue", 1.0, ["state", "gram", "--kind", "fock_a"], " NOT PSD\n"),
        ("mover-roundtrip", -1.0, ["chiral", "roundtrip", "--combo", "aC + 3/2 c0"], ""),
        ("locality-observable-nets", -1.0, LOCALITY["default"], " FAIL\n"),
        ("field-net-disjoint-phase", -1.0,
         ["net", "locality", "--kind", "F", "--i1=-17/8:-7/8", "--i2=7/8:17/8"], " FAIL\n"),
    ],
    ids=["gram", "roundtrip", "locality-C", "locality-F"],
)
def test_cli_verdict_is_the_table_check(name, tolerance, argv, verdict, monkeypatch, capsys):
    """Tightening one check's table bound turns the CLI verdict that uses it to a failure."""
    monkeypatch.setitem(
        suites.CHECK_BY_NAME, name, replace(suites.CHECK_BY_NAME[name], tolerance=tolerance)
    )
    assert run(argv) == 1
    assert capsys.readouterr().out.endswith(verdict)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_registry_sample_exits_2(bad, tmp_path, capsys):
    default = (Path(suites.__file__).parent / "data" / "default.registry").read_text()
    values = ["0"] * 16
    values[7] = bad
    path = tmp_path / "bad.registry"
    path.write_text(
        default
        + f"fn bad grid window=-4:4 limits=0:0 values={','.join(values)} integral=0\n"
        + "pair zz f0=0 f1=bad\n"
    )
    assert run(["--registry", str(path), "--suite", "nets"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = len(default.splitlines()) + 1
    assert f"error: line {line}: non-finite sample {bad} at index 7" in captured.err


def test_cli_bound_is_inclusive(monkeypatch, capsys):
    """A defect exactly at its table bound passes, as it does in the report."""
    check = suites.CHECK_BY_NAME["locality-observable-nets"]
    monkeypatch.setitem(suites.CHECK_BY_NAME, check.name, replace(check, tolerance=0.0))
    assert run(LOCALITY["default"]) == 0
    assert capsys.readouterr().out == "kind C defect 0.000e+00 PASS\n"


DEFAULT_T = "pair T  f0=dtka f1=tka"
# the checks that split data against the registry's regularizer T
T_SPLIT_CHECKS = (
    "sigma-splitting",
    "charge-coordinates-regularizer-independent",
    "gram-min-eigenvalue",
    "regular-substitute-hermiticity-violation",
    "product-state-coincidence",
)


@pytest.mark.parametrize(
    "pair, charges, plane_checks",
    [
        ("pair T f0=0 f1=tka", "0, 1", ("staged-product-agreement",)),
        ("pair T f0=dtka f1=0", "1, 0", ()),
    ],
    ids=["zero-c", "zero-q"],
)
def test_degenerate_regularizer_is_an_error_record(pair, charges, plane_checks, tmp_path, capsys):
    """A registry T with a zero charge errors each check that splits against
    it, and with T_c = 0 the crossed product's charge plane as well; the run
    still writes every record, and `state eval` exits 2."""
    default = (Path(suites.__file__).parent / "data" / "default.registry").read_text()
    assert default.count(DEFAULT_T) == 1
    path = tmp_path / "degenerate.registry"
    path.write_text(default.replace(DEFAULT_T, pair))
    out = tmp_path / "report.json"
    assert run(["--registry", str(path), "--suite", "all", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    records = [c for s in report["sections"] for c in s["checks"]]
    assert [c["name"] for c in records] == [c.name for c in suites.CHECKS]
    errors = {c["name"]: (c["error"], c["message"]) for c in records if c["status"] == "error"}
    message = f"regularizer charges {charges}"
    assert errors == dict.fromkeys(T_SPLIT_CHECKS + plane_checks, ("DegenerateRegularizer", message))

    argv = ["--registry", str(path), "state", "eval", "--kind", "product_p", "--element", "W[aC]"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("scale", [Fraction(2), Fraction(-1, 3)])
def test_crossed_product_plane_has_unit_charge(scale):
    """The staged product law holds for a regularizer whose slot 0 does not
    have unit charge: the plane vector A is T_0 / T_c."""
    space = load_registry()
    cp = CrossedProduct(space, space.generator("T").scale(scale))
    assert space.charges(cp.A).c == 1
    rng = np.random.default_rng(4)
    h_pool = [space.generator(name) for name in ("aL", "aC", "aR", "n1")]
    for _ in range(20):
        x, y = (
            Staged(
                complex(rng.standard_normal(), rng.standard_normal()),
                h_pool[rng.integers(4)].scale(Fraction(int(rng.integers(-2, 3)), 2)),
                Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3))),
                Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3))),
            )
            for _ in range(2)
        )
        staged = cp.embed(cp.product(x, y))
        direct = weyl_mul(space, cp.embed(x), cp.embed(y))
        assert max_coeff_distance(staged, direct) < 1e-10


def test_pool_draw_by_index_matches_the_name_population():
    """`suites._rand_vector` draws indices into its pool. numpy draws the same
    indices from `len(pool)` as from an array of the names, so the picks,
    the vector and every following draw are those of the name form."""
    space = load_registry()
    pools = [space.generator_names(), ["aL", "aC", "aR"]]
    for seed in range(100):
        for pool in pools:
            for n_terms in (2, 3):
                old, new = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = ZERO
                for name in old.choice(list(pool), size=n_terms, replace=False):
                    coeff = Fraction(int(old.integers(-2, 3)), int(old.integers(1, 3)))
                    expected = expected + space.generator(str(name)).scale(coeff)
                assert suites._rand_vector(space, new, pool, n_terms) == expected
                assert old.integers(0, 2**62, size=4).tolist() == new.integers(0, 2**62, size=4).tolist()
