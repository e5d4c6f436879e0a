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

from weylnet import cli, nets, suites
from weylnet.errors import NotInDomain
from weylnet.funcspace import Grid
from weylnet.registry import load_registry, parse_registry
from weylnet.states import STATES, gram_psd
from weylnet.weyl import (
    IDENTITY, CrossedProduct, Staged, max_coeff_distance, parse_element, weyl_mul,
)

import make_goldens  # tests/make_goldens.py: the golden files and their runs
from charge_rationals import rationals


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

    from weylnet.registry import load_registry, parse_registry

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


def test_state_gram_draws_the_gram_checks_words(capsys):
    """`state gram` grades the unit and count - 1 words of the
    gram-min-eigenvalue check, W(v) + zeta W(w) from `suites._rand_words`,
    drawn on default_rng(seed) over the kind's domain."""
    space = load_registry()
    state = STATES["field_f"](space)
    pool = [n for n in space.generator_names() if state.domain(space, space.generator(n))]
    rng = np.random.default_rng(3)
    M, min_eig = gram_psd(space, state, [IDENTITY] + suites._rand_words(space, rng, pool, 19))
    norm = float(np.linalg.norm(M, 2))
    assert run(["--seed", "3", "state", "gram", "--kind", "field_f", "--count", "20"]) == 0
    assert capsys.readouterr().out == (
        f"gram 20x20 min eigenvalue {min_eig:.6g} norm {norm:.6g} PSD\n")


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("oops", "bad interval 'oops' (expected a:b)"),
        ("1/0:2", "bad interval '1/0'"),
        ("1:2:3", "bad interval '1:2:3' (expected a:b)"),
        ("a:2", "bad interval 'a'"),
        ("2:1", "interval needs a < b, got [2, 1]"),
    ],
    ids=["oops", "zero-denominator", "three-parts", "not-a-number", "reversed"],
)
def test_net_locality_bad_interval(text, message, capsys):
    """An interval flag is read by the registry's a:b parser: exit 2, and the
    message names the token, never a Python unpacking error or a Fraction repr."""
    assert run(["net", "locality", "--kind", "A", f"--i1={text}", "--i2=1:2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
# order 150 centred near the window's edge overflows the Hermite recursion at
# the far end: the samples are NaN
NAN_HG2 = "fn hgC2 gaussian-hermite order=150 center=26"
NAN_HG3 = "fn hgC3 gaussian-hermite order=150 center=28"


def _nan_hermite_registry(tmp_path) -> str:
    path = tmp_path / "nan-hermite.registry"
    path.write_text(f"{NAN_HG3.replace('hgC3', 'h')}\n{NAN_HG2.replace('hgC2', 'g')}\n"
                    "pair aX f0=h f1=g\n")
    return str(path)


def _swapped_default_registry(tmp_path) -> str:
    path = tmp_path / "swapped.registry"
    lines = DEFAULT_TEXT.splitlines()
    lines = [NAN_HG2 if l.startswith("fn hgC2 ") else NAN_HG3 if l.startswith("fn hgC3 ") else l
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


def _hermite_registry(keys):
    """A registry maker: one Hermite function h, written with `keys`, in pair hX."""
    def make(tmp_path) -> str:
        path = tmp_path / "hermite.registry"
        path.write_text(f"fn h gaussian-hermite {keys}\npair hX f0=0 f1=h\n")
        return str(path)
    return make


# Hermite keys the registry refuses, each with the cause it names at line 1
HERMITE_BAD = {
    "order=2 center=40": "center 40 outside the window [-32, 32]",
    "order=2 center=1e400": "center 1e+400 outside the window [-32, 32]",
    "order=2.0": "order must be an integer",
}
REGISTRIES = {
    NON_UTF8: _non_utf8_registry, UNKNOWN_KEY: _unknown_key_registry,
    NAN_HERMITE: _nan_hermite_registry, SWAPPED_DEFAULT: _swapped_default_registry,
    KINK_FREE: _kink_free_registry,
    **{f"<hermite {keys}>": _hermite_registry(keys) for keys in HERMITE_BAD},
}
NARROW_LOCALITY = ["net", "locality", "--kind", "F", "--i1=-17/8:-7/8", "--i2=7/8:17/8"]
N308 = str(10**308)
# automorphism phase angles that overflow to inf: each would give a nan
# coefficient, which WeylElement drops as zero
PHASE_OVERFLOW = [
    ["net", "gauge", "--n=1e308", "--r=1e308", "--apply", "W[T]"],
    ["net", "gauge", "--n=1e308", "--apply", "W[2 T]"],
    # c1, aC and T3 share no function, so no atom sums two coefficients
    ["net", "sector", "--element", "T0", "--interval=-9/8:9/8",
     "--apply", f"W[{N308} c1 + {N308} aC + {N308} T3]"],
]
X300 = "x" * 300
# a 300-character token in each place a message echoes one
LONG_TOKEN = {
    "long-generator": ["state", "eval", "--kind", "field_f", "--element", f"W[{X300}]"],
    "long-coefficient": ["state", "eval", "--kind", "field_f", "--element", f"{X300} * W[aC]"],
    "long-non-finite-coefficient": ["state", "eval", "--kind", "field_f", "--element",
                                    f"1e{'9' * 300} * W[aC]"],
    "long-term": ["state", "eval", "--kind", "field_f", "--element", f"W[aC {X300}]"],
    "long-zero-denominator": ["state", "eval", "--kind", "field_f", "--element",
                              f"W[1/{'0' * 300} aC]"],
    "long-tail": ["state", "eval", "--kind", "field_f", "--element", f"W[aC] {X300}"],
    "long-literal": ["state", "eval", "--kind", "field_f", "--element", X300],
    "long-window": ["--window", X300, "--suite", "nets"],
    "long-gauge-n": ["net", "gauge", "--n", X300, "--apply", "W[T]"],
}


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
    ] + [["--registry", f"<hermite {keys}>", "--suite", "nets"] for keys in HERMITE_BAD]
    + PHASE_OVERFLOW + list(LONG_TOKEN.values()),
    ids=["nan", "overflow", "zero-denominator", "overflowing-sum", "bad-window",
         "combo-roundtrip", "combo-decompose", "empty-combo", "blank-combo",
         "empty-element-key", "non-utf8-registry", "stacked-sign", "dangling-sign",
         "unknown-registry-key", "kink-outside-window", "nan-hermite-registry",
         "nan-hermite-default", "zero-step-eval", "zero-step-locality", "zero-step-suite",
         "hermite-center-outside-window", "hermite-center-beyond-a-float",
         "hermite-order-not-an-integer", "gauge-phase-overflow", "gauge-phase-overflow-2T",
         "sector-phase-overflow"] + list(LONG_TOKEN),
)
def test_bad_input_exits_2(argv, tmp_path, capsys):
    """Exit 2 with a named cause on the last stderr line, of at most 200
    bytes: a long token is quoted in short form."""
    argv = [REGISTRIES[arg](tmp_path) if arg in REGISTRIES else arg for arg in argv]
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert len(captured.err.splitlines()[-1].encode()) <= 200, captured.err


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


@pytest.mark.parametrize("argv", PHASE_OVERFLOW, ids=["gauge", "gauge-2T", "sector"])
def test_overflowing_phase_is_one_named_line(argv, capsys):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: (gauge|sector) phase angle -inf is not a finite float\n", err)
    assert len(err.encode()) <= 200


OVERFLOW_COMBO = f"{N308} c0 + {N308} T"  # each coefficient a float, F_c = 2e308 is not
UNCHARGED_Q_OVERFLOW = f"W[{N308} c0 + {N308} c1]"  # F_c = 2e308 overflows, F_q = 0
# N^2 fits a float, but N^2 Q(a, b) overflows with both signs: q0 and q3's
# Fock entries are about 3.1 and 2.2, and their cross terms are negative
N_NAN = 12 * 10**153
NAN_KINK_PAIR = f"W[{N_NAN} q0 - {N_NAN} q3]"
NAN_MESSAGE = "Fock norm overflows a float at coefficient 1.2e+154 (numeric charge sigma(v, e) 0)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chiral", "roundtrip", "--combo", OVERFLOW_COMBO],
         "charge F_c of the combination overflows a float"),
        (["chiral", "decompose", "--combo", OVERFLOW_COMBO],
         "charge F_c of the combination overflows a float"),
        (["state", "eval", "--kind", "chiral_vacuum", "--element", f"W[{N308} aC]"],
         "Fock norm overflows a float at coefficient 1e+308 (numeric charge sigma(v, e) 1.26e+293)"),
        *[(["state", "eval", "--kind", "chiral_vacuum", "--element", f"W[{10**e} aC]"],
           f"Fock norm overflows a float at coefficient 1e+{e} (numeric charge sigma(v, e) "
           f"1.26e+{e - 15})") for e in (155, 160, 300)],
        *[(["state", "eval", "--kind", kind, "--element", NAN_KINK_PAIR], NAN_MESSAGE)
          for kind in ("fock_a", "field_f", "product_p", "chiral_vacuum")],
        (["state", "eval", "--kind", "field_f", "--element", f"W[{N308} aC + {N308} aL]"],
         "Fock norm overflows a float at coefficient 1e+308 (numeric charge sigma(v, e) 1.07e+293)"),
        (["net", "gauge", "--n", "0.3", "--apply", f"W[{N308} T + {N308} T0]"],
         "charge F_c of the combination overflows a float"),
        (["net", "gauge", "--n", "0.5", "--apply", UNCHARGED_Q_OVERFLOW],
         "charge F_c of the combination overflows a float"),
    ],
    ids=["chiral-roundtrip", "chiral-decompose", "chiral-vacuum", "chiral-vacuum-1e155",
         "chiral-vacuum-1e160", "chiral-vacuum-1e300", "fock-a-nan", "field-f-nan",
         "product-p-nan", "chiral-vacuum-nan", "field-f", "gauge", "gauge-n-c0-c1"],
)
def test_overflowing_charge_or_norm_is_one_named_line(argv, message, capsys):
    """A combination of float coefficients whose charge or norm overflows a
    float exits 2 with one line naming the overflow: no traceback, no numpy
    warning, no nan (the Fock sum of N q0 - N q3 was inf - inf, printed as
    nan+nani, and 0+0i by the chiral vacuum), and for field_f not the
    window-cut charge message.  Every vacuum names the one Fock overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gauge_reads_only_the_charges_it_weighs(capsys):
    """With n = 0 the gauge phase reads F_q alone, so a combination whose F_c
    overflows a float and whose F_q is 0 comes back unchanged."""
    argv = ["net", "gauge", "--r", "0.5", "--apply", UNCHARGED_Q_OVERFLOW]
    assert run(argv) == 0
    assert capsys.readouterr().out == f"{parse_element(load_registry(), UNCHARGED_Q_OVERFLOW)}\n"


@pytest.mark.parametrize("kind", ["chiral_vacuum", "fock_a", "field_f"])
def test_largest_finite_norm_reads_zero(kind, capsys):
    """At N = 1e154 the square of N still fits a float.  The norm of N aC,
    2.35e308, is +inf in both tables, not a NaN, so each vacuum's
    exponential reads 0, not an overflow."""
    assert run(["state", "eval", "--kind", kind, "--element", f"W[{10**154} aC]"]) == 0
    assert capsys.readouterr().out == "0+0i\n"


@pytest.mark.parametrize("kind", ["fock_a", "field_f"])
@pytest.mark.parametrize("coeff", ["1000000", "10000000"])
def test_large_uncut_coefficient_is_in_the_fock_domain(kind, coeff, capsys):
    """The numeric charge of N aC is N times aC's quadrature residue (1.5e-15
    at 4096 points).  The window cuts no atom, so the Fock norm is defined:
    its charge test scales with the largest coefficient."""
    assert run(["state", "eval", "--kind", kind, "--element", f"W[{coeff} aC]"]) == 0
    assert capsys.readouterr().out == "0+0i\n"


@pytest.mark.parametrize("coeff", ["", "1000000 "])
def test_window_cut_atom_still_leaves_the_fock_domain(coeff, capsys):
    """At --window 16 the window cuts aR (its samples integrate to -0.031),
    whatever its coefficient, for the Fock vacuum and for the chiral vacuum,
    which reads the same domain in the mover basis."""
    for kind in ("fock_a", "chiral_vacuum"):
        argv = ["--window", "16", "state", "eval", "--kind", kind, "--element", f"W[{coeff}aR]"]
        assert run(argv) == 2, kind
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: f0 must have zero integral (charge)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chiral", "roundtrip", "--combo", f"{N308} c0"],
        ["chiral", "decompose", "--combo", f"{N308} c0"],
        ["chiral", "roundtrip", "--combo", f"{N308} T"],
    ],
    ids=["roundtrip-bump", "decompose-bump", "roundtrip-regularizer"],
)
def test_subcommand_float_overflow_exits_2(argv, capsys):
    """Samples that overflow a float inside a subcommand (the bump's peak
    times 1e308, or the spectral derivative of T's movers) exit 2 with
    numpy's one line naming the overflow, where roundtrip printed a nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: overflow encountered in \w+\n", captured.err), captured.err


BIG, HUGE = "1" + "0" * 308, "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, names",
    [
        (["state", "eval", "--kind", "fock_a", "--element", f"W[{BIG} aC + {BIG} aC]"], "aC"),
        (["chiral", "roundtrip", "--combo", f"{HUGE} c0"], "c0"),
        # q0 = (0, tk0) reads T0's slot-1 atom, and is named as written
        (["chiral", "roundtrip", "--combo", f"{HUGE} q0"], "q0"),
        (["net", "gauge", "--apply", f"W[{HUGE} T]"], "T"),
        # q3 = (0, tk3) reads T3's slot-1 atom: 2e308 on that atom
        (["net", "sector", "--element", "T0", "--interval=-9/8:9/8",
          "--apply", f"W[{N308} c1 + {N308} q3 + {N308} T3]"], "q3 + T3"),
    ],
    ids=["summed-state-eval", "chiral-roundtrip", "shared-atom", "net-gauge", "summed-shared-atom"],
)
def test_combo_coefficient_beyond_a_float_exits_2(argv, names, capsys):
    """A generator coefficient that a float cannot hold, alone or once like
    terms or generators that share an atom are summed, is refused where the
    combination is parsed, naming the generators summed on that atom in
    input order, each once."""
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: coefficient of {names} overflows a float\n"


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
    # order 150, the largest the registry takes, centred at 24 overflows only
    # in the closed-form derivative
    Path(path).write_text("fn h gaussian-hermite order=150 center=24\npair aX f0=h f1=0\n")
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


@pytest.mark.parametrize("points", [10**18, 2**62], ids=["memory-error", "too-big"])
def test_grid_too_large_to_sample_is_the_grids_fault(points, capsys):
    """NumPy refuses both sizes before it touches memory: 10**18 points with
    a MemoryError (6.94 EiB), 2**62 with a ValueError.  Either is the grid's
    fault, not that of the first `fn` line."""
    assert run(["--suite", "nets", "--grid-points", str(points)]) == 2
    assert capsys.readouterr().err == f"error: grid of {points} points is too large to sample\n"


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


def test_report_does_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a dot product of 16384 points across its threads, and
    the order of that sum with their number; the long sums are numpy's own
    (`funcspace.dot`), so one and two threads write the same bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "weylnet", "--suite", "all", "--seed", "7", "--grid-points", "16384"]
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src] + [p for p in os.environ.get(
                       "PYTHONPATH", "").split(os.pathsep) if p]))
        procs.append(subprocess.run(argv, capture_output=True, env=env, timeout=120))
    assert [p.returncode for p in procs] == [0, 0], [p.stderr for p in procs]
    assert procs[0].stdout == procs[1].stdout
    assert procs[0].stdout == (Path(__file__).parent / "data" / "report_all_seed7_16384.json").read_bytes()


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


@pytest.mark.parametrize("name", list(make_goldens.GOLDENS))
def test_golden_report_is_byte_identical(name, tmp_path, capsys, monkeypatch):
    """Each run of a golden file writes that file's report byte for byte and
    exits as its checks say: 0 when all pass, 1 when one fails.  The files
    come from `tests/make_goldens.py`, which prints what moved, and run from
    the root of the checkout, where a registry path in their argv starts."""
    monkeypatch.chdir(make_goldens.ROOT)
    text = (Path(__file__).parent / "data" / name).read_text()
    golden = json.loads(text)
    assert suites.serialize_report(golden) == text
    runs = make_goldens.runs(name)
    reports = {None: golden} if None in runs else golden
    assert reports.keys() == runs.keys()
    for key, argv in runs.items():
        out = tmp_path / "report.json"
        assert run(argv + ["--out", str(out)]) == (0 if reports[key]["passed"] else 1), key
        assert out.read_text() == suites.serialize_report(reports[key]), key


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("name", list(make_goldens.GOLDENS))
def test_golden_report_is_strict_json(name):
    """No committed report holds a NaN or an Infinity, which json.dumps
    would write unless allow_nan=False, and which strict parsers refuse."""
    text = (Path(__file__).parent / "data" / name).read_text()
    json.loads(text, parse_constant=_refuse_constant)


def test_report_with_a_nan_is_refused_at_serialization():
    with pytest.raises(ValueError):
        suites.serialize_report({"value": math.nan})


def test_locality_with_a_nan_closed_form_exits_2(monkeypatch, capsys):
    """A NaN defect is an error naming it, not a FAIL line with a nan in it."""
    monkeypatch.setattr(nets, "disjoint_sigma", lambda space, F, G: math.nan)
    assert exit_code(NARROW_LOCALITY) == 2
    assert capsys.readouterr() == ("", "error: non-finite defect nan\n")


def test_make_goldens_check_writes_nothing_and_exits_1_on_a_change(tmp_path, monkeypatch, capsys):
    """`make_goldens.py --check` never writes; it exits 1 while a file is
    missing or its bytes differ from the run, and 0 once they match.  It
    names a moved report value by its path, an ad-hoc one by its command."""
    monkeypatch.setattr(make_goldens, "DATA", tmp_path)
    monkeypatch.setattr(make_goldens, "GOLDENS", {"nets.json": ["--suite", "nets", "--seed", "1"]})
    monkeypatch.setattr(make_goldens, "COMMANDS", [["chiral", "decompose", "--combo", "q0"]])
    path, adhoc = tmp_path / "nets.json", tmp_path / make_goldens.ADHOC
    assert make_goldens.main(["--check"]) == 1 and not path.exists() and not adhoc.exists()
    assert make_goldens.main([]) == 0 and path.exists() and adhoc.exists()
    assert make_goldens.main(["--check"]) == 0
    stale = path.read_text().replace('"seed": 1', '"seed": 2')
    path.write_text(stale)
    assert make_goldens.main(["--check"]) == 1
    assert path.read_text() == stale
    out = capsys.readouterr().out
    assert "  seed: 2 -> 1\n" in out and out.endswith("1 of 2 file(s) would change\n  nets.json\n")
    path.write_text(stale.replace('"seed": 2', '"seed": 1'))
    adhoc.write_text(adhoc.read_text().replace("c_plus 1/2", "c_plus 1/3"))
    assert make_goldens.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "  chiral decompose --combo q0.stdout[0]: 'c_plus 1/3  c_minus 1/2' -> " in out
    assert out.endswith(f"1 of 2 file(s) would change\n  {make_goldens.ADHOC}\n")


ADHOC = json.loads((Path(__file__).parent / "data" / make_goldens.ADHOC).read_text())


@pytest.mark.parametrize(
    "case", ADHOC, ids=lambda case: re.sub(r"\W+", "-", " ".join(case["argv"])).strip("-")
)
def test_adhoc_command_matches_golden(case, capsys):
    """The README's ad-hoc commands and `state gram` for every kind at seed 5:
    exit code and stdout byte for byte, as `tests/make_goldens.py` wrote them."""
    assert case["argv"] in make_goldens.COMMANDS
    assert run(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


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


def test_shared_loops_run_once_per_suite_run(monkeypatch):
    counts = dict.fromkeys(("cocycle_defect", "roundtrip_error"), 0)

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted

    for name in counts:
        monkeypatch.setattr(suites, name, counting(name, getattr(suites, name)))
    space = load_registry()
    suites.run_suite("all", 7, space=space)
    # the axiom loop reads 1000 triples for five checks, the mover loop 10 vectors for two
    assert counts == {"cocycle_defect": 1000, "roundtrip_error": 10}
    # a second run on the same Space starts with no kept outcome
    suites.run_suite("weyl-axioms", 7, space=space)
    suites.run_suite("chiral", 7, space=space)
    assert counts == {"cocycle_defect": 2000, "roundtrip_error": 20}


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
    assert rationals(space, cp.A).c == 1
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


# 24 generators, one distinct atom each, so every pick shows in the vector
WIDE_REGISTRY = "".join(f"fn h{k} gaussian-hermite order={k}\npair p{k} f0=0 f1=h{k}\n"
                        for k in range(24))
COEFFS = {Fraction(s * n, d) for s in (1, -1) for n, d in ((1, 2), (1, 1), (2, 1))}


def test_rand_vectors_sum_distinct_picks_with_the_coefficient_law():
    """`suites._rand_vectors` sums num/den g over min(n_terms, size) distinct
    generators g of its pool, num in -2..2 and den in 1..2.  On 24 generators
    of one atom each, for pools of 1-24 names and n_terms 1-4: no vector has
    more atoms than picks, every coefficient is one of +-1/2, +-1, +-2, over
    3,000 draws of the whole pool every generator and every nonzero
    coefficient shows, and one seed gives the same vectors twice."""
    wide = parse_registry(WIDE_REGISTRY)
    names = wide.generator_names()
    atom_of = {wide.generator(name).items()[0][0]: name for name in names}
    for size in range(1, 25):
        for n_terms in range(1, 5):
            pool = names[:size]
            rng = np.random.default_rng(size * 5 + n_terms)
            vs = list(suites._rand_vectors(wide, rng, pool, 70, n_terms))
            rng = np.random.default_rng(size * 5 + n_terms)
            assert vs == list(suites._rand_vectors(wide, rng, pool, 70, n_terms))
            for v in vs:
                assert len(v.items()) <= min(n_terms, size)
                assert {coeff for _, coeff in v.items()} <= COEFFS
                assert {atom_of[a] for a, _ in v.items()} <= set(pool)
    for n_terms in range(1, 5):
        seen_names, seen_coeffs = set(), set()
        for v in suites._rand_vectors(wide, np.random.default_rng(n_terms), names, 3000, n_terms):
            assert len(v.items()) <= n_terms
            seen_names.update(atom_of[a] for a, _ in v.items())
            seen_coeffs.update(coeff for _, coeff in v.items())
        assert seen_names == set(names)
        assert seen_coeffs == COEFFS


def test_every_check_passes_at_ten_seeds():
    """The default grid passes all 25 checks at seeds 0-9, so no one golden
    seed hides a failure that depends on the draw."""
    space = load_registry()
    for seed in range(10):
        assert suites.run_suite("all", seed, space=space)["counts"] == {
            "pass": 25, "fail": 0, "total": 25}


@pytest.mark.parametrize("order", [-1, 151, 155, 158, 171, 2000])
def test_hermite_order_whose_normalization_underflows_names_its_line(order, tmp_path, capsys):
    """Orders 151-158 would load as the zero function, and Space would drop
    the atom: W[aX] would read as its slot-1 part alone.  Below 0 and above
    170 the normalization fails in Python's factorial or float conversion.
    The registry refuses every order outside 0..150 by its range."""
    path = tmp_path / "underflow.registry"
    path.write_text(f"fn h gaussian-hermite order={order} center=12\n"
                    "fn g gaussian-hermite order=2\npair aX f0=h f1=g\n")
    argv = ["--registry", str(path), "state", "eval", "--kind", "fock_a", "--element", "W[aX]"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line 1: gaussian-hermite order {order} outside 0..150\n"
    )


@pytest.mark.parametrize(
    "keys, cause",
    list(HERMITE_BAD.items()) + [
        (f"order=2 center=-{'1' * 500}", "center -1.11111e+499 outside the window [-32, 32]"),
        ("order=1_0", "order must be an integer"),
    ],
    ids=["center-40", "center-1e400", "order-2.0", "long-center", "order-1_0"],
)
def test_hermite_center_outside_the_window_or_fractional_order_names_its_line(
        keys, cause, tmp_path, capsys):
    """A Hermite center outside the window once loaded as the function's cut
    tail (center=40 read 1+0i), or failed in a float conversion (1e400); a
    fractional order failed in int().  Each names its line, and a center
    prints in short form, as window ends do."""
    argv = ["--registry", _hermite_registry(keys)(tmp_path), "state", "eval", "--kind",
            "fock_a", "--element", "W[hX]"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: line 1: gaussian-hermite {cause}\n")


@pytest.mark.parametrize(
    "fn, cause",
    [
        ("kink center=0 width=abc", "bad width 'abc'"),
        (f"kink center=0 width={'a' * 300}", "bad width 'aaaaaaaaaa'... (300 chars)"),
        ("kink center=1/0 width=1", "bad center '1/0'"),
        ("grid window=-4:4 limits=0:0 values=0,a,0,0,0,0,0,0", "bad values 'a'"),
        ("grid window=-4:4:5 limits=0:0 values=0,0,0,0,0,0,0,0",
         "bad window '-4:4:5' (expected a:b)"),
        ("grid window=-4 limits=0:0 values=0,0,0,0,0,0,0,0", "bad window '-4' (expected a:b)"),
        ("grid window=-4:4 limits=0:0:0 values=0,0,0,0,0,0,0,0",
         "bad limits '0:0:0' (expected a:b)"),
        ("grid window=-4:4 limits=0 values=0,0,0,0,0,0,0,0", "bad limits '0' (expected a:b)"),
        (f"gaussian-hermite order={'1' * 300}",
         "gaussian-hermite order '1111111111'... (300 chars) outside 0..150"),
        (f"gaussian-hermite order=-{'1' * 300}",
         "gaussian-hermite order '-111111111'... (301 chars) outside 0..150"),
        (f"gaussian-hermite order={'7' * 5000}",
         "gaussian-hermite order '7777777777'... (5000 chars) outside 0..150"),
        ("kink center=0 center=1 width=1", "duplicate key 'center'"),
        ("kink center=0 width=1 form=slope", "form must be step/deriv"),
        ("kink width=1", "missing key 'center'"),
        ("kink center=0 width=0", "width must be positive"),
        ("kink center=100 width=1 compact=false",
         "arctan kink center 100 not inside the window [-32, 32]"),
        ("kink center=32 width=1 compact=false",
         "arctan kink center 32 not inside the window [-32, 32]"),
        (f"kink center=0 width=1 {'a' * 300}", "expected key=value, got 'aaaaaaaaaa'... (300 chars)"),
        (f"kink center=0 width=1 {'a' * 300}=1", "unknown key 'aaaaaaaaaa'... (300 chars) for kink"),
        (f"{'a' * 300} center=0", "unknown function kind 'aaaaaaaaaa'... (300 chars)"),
    ],
    ids=["width-abc", "width-300-chars", "center-1/0", "values-a", "window-three-parts",
         "window-one-part", "limits-three-parts", "limits-one-part", "order-300-digits",
         "order-minus-300-digits", "order-5000-digits", "duplicate-key", "form-slope",
         "missing-center", "width-0", "arctan-center-outside", "arctan-center-on-the-edge",
         "token-300-chars", "key-300-chars", "kind-300-chars"],
)
def test_bad_registry_value_names_its_line_and_key_in_short(fn, cause, tmp_path, capsys):
    """A value the registry cannot read gives one line that names the line
    number and the key, and a long token in short form: these once printed
    no line number, or Python's own text with every character echoed."""
    path = tmp_path / "bad.registry"
    path.write_text(f"fn f {fn}\npair p f0=0 f1=f\n")
    argv = ["--registry", str(path), "state", "eval", "--kind", "fock_a", "--element", "W[p]"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line 1: {cause}\n")
    assert len(err.encode()) <= 200


A300 = "a" * 300


@pytest.mark.parametrize(
    "text, cause",
    [
        ("fn\n", "line 1: missing name"),
        ("fn x\n", "line 1: fn needs a kind"),
        ("fn g grid window=-4:4 limits=0:1 values=0,0,0,0,0,0,0,1 integral=1\npair x f0=g\n",
         "line 2: slot-0 function 'x.0' must have zero limits"),
        (f"fn {A300} constant value=1\nfn {A300} constant value=1\n",
         "line 2: duplicate fn 'aaaaaaaaaa'... (300 chars)"),
        (f"fn o constant value=1\npair {A300} f1=o\npair {A300} f1=o\n",
         "line 3: duplicate pair 'aaaaaaaaaa'... (300 chars)"),
        (f"pair p f1={A300}\n", "line 1: unknown fn 'aaaaaaaaaa'... (300 chars)"),
        (f"{A300} x\n", "line 1: unknown record 'aaaaaaaaaa'... (300 chars)"),
        (f"fn h constant value=1\npair {A300} f0=h\n",
         "line 2: slot-0 function 'aaaaaaaaaa'... (302 chars) needs a declared integral"),
        (f"fn g grid window=-4:4 limits=0:1 values=0,0,0,0,0,0,0,1 integral=1\npair {A300} f0=g\n",
         "line 2: slot-0 function 'aaaaaaaaaa'... (302 chars) must have zero limits"),
        # the slot rule is checked at its own line, before a later line is read
        ("fn h constant value=1\npair p f0=h\npair r f1=nope\n",
         "line 2: slot-0 function 'p.0' needs a declared integral"),
    ],
    ids=["bare-fn", "fn-without-kind", "slot-0-limits", "duplicate-fn-300-chars",
         "duplicate-pair-300-chars", "unknown-fn-300-chars", "unknown-record-300-chars",
         "slot-0-integral-300-chars", "slot-0-limits-300-chars", "slot-0-before-unknown-fn"],
)
def test_bad_registry_record_names_its_cause_in_short(text, cause, tmp_path, capsys):
    """A registry record or pair the loader refuses gives one line naming
    its cause, and a long name in short form, as a bad value does."""
    path = tmp_path / "bad.registry"
    path.write_text(text)
    assert run(["--registry", str(path), "--suite", "nets"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {cause}\n")
    assert len(err.encode()) <= 200


def test_zero_function_in_slot_0_fills_the_0_slot(tmp_path, capsys):
    """A zero function needs no declared integral: it is the 0 slot."""
    path = tmp_path / "zero.registry"
    path.write_text("fn z constant value=0\npair z f0=z\n")
    assert run(["--registry", str(path), "state", "eval", "--kind", "fock_a", "--element", "W[z]"]) == 0
    assert capsys.readouterr() == ("1+0i\n", "")
    space = load_registry(str(path))
    assert space.generator("z").is_zero() and [a.name for a in space.atoms] == ["__unit__"]


# finite samples on their own grid that overflow once resampled onto the default grid
RESAMPLE_OVERFLOW = ("fn x grid window=-4:4 limits=0:0 values=0,1.7e308,1.7e308,1.7e308,"
                     "1.7e308,1.7e308,1.7e308,0 integral=0\npair x f0=x\n")
# finite once resampled, but the Simpson sum of x against the kink overflows
GRAM_OVERFLOW = ("fn x grid window=-4:4 limits=0:0 values=0,1.7e308,0,0,0,0,-1.7e308,0 integral=0\n"
                 "fn tk kink center=0 width=1\npair x f0=x\npair q f1=tk\n")


@pytest.mark.parametrize("argv", [
    ["--suite", "weyl-axioms"],
    ["state", "eval", "--kind", "fock_a", "--element", "W[x]"],
    ["state", "gram", "--kind", "nonregular_elementary", "--count", "4"],
], ids=["weyl-axioms", "state-eval", "state-gram"])
@pytest.mark.parametrize("text, cause", [
    (RESAMPLE_OVERFLOW, "line 1: function has a non-finite sample"),
    (GRAM_OVERFLOW, "Gram entry of 'x.0' and 'q.1' is -inf"),
], ids=["resample-overflow", "gram-overflow"])
def test_overflow_at_load_names_its_line_or_its_atoms(text, cause, argv, tmp_path, capsys):
    """Resampled samples are checked at their registry line, and the Gram
    table when it is built: the resampled inf once reached the Space, with
    numpy's overflow text on stderr, and an inf Gram entry reached the
    checks (with a constant pair beside q, `state gram` then ended in a
    LinAlgError traceback)."""
    path = tmp_path / "overflow.registry"
    path.write_text(text)
    assert run(["--registry", str(path)] + argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {cause}\n")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize(
    "text, cause",
    [
        (" * W[aC]", "empty coefficient"),
        ("abc  * W[aC]", "bad coefficient 'abc'"),  # the stripped token
        (f"W[{'x' * 300}]", "unknown generator 'xxxxxxxxxx'... (300 chars); registered: "
                            "T, T0, T3, aL, aC, aR, n1, q0, q3, c0, c1, c2"),
    ],
    ids=["empty-coefficient", "bad-coefficient", "generator-300-chars"],
)
def test_bad_element_names_its_cause_in_short(text, cause, capsys):
    assert run(["state", "eval", "--kind", "field_f", "--element", text]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {cause}\n")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("action", [["gauge", "--n", "0.5"],
                                    ["sector", "--element", "q0", "--interval=-9/8:9/8"]])
@pytest.mark.parametrize("element, printed", [("W[aC] - W[aC]", "WeylElement(0)"),
                                              ("W[0]", "WeylElement((1+0j)W[SymVector(0)])")])
def test_apply_prints_the_zero_and_the_identity(action, element, printed, capsys):
    assert run(["net"] + action + ["--apply", element]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_finite_number_flag_names_its_token(capsys):
    assert exit_code(["net", "gauge", "--n", "abc", "--apply", "W[T]"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "weylnet net gauge: error: argument --n: must be a finite number, got 'abc'")


@pytest.mark.parametrize("argv", [
    ["--suite", "nets", "--seed", "7"],
    ["net", "sector", "--element", "q0", "--interval=-9/8:9/8", "--apply", "W[c1]"],
    ["net", "diagram", "--regularizer", "T0", "--interval=-9/8:9/8"],
], ids=["nets-suite", "sector", "diagram"])
def test_kinks_localize_on_a_million_point_grid(argv, capsys):
    """At 2^20 points, one-sided edge stencils once left a rounding residue
    above TOL_SUPP on flat tails: q0 and T0 localized to the whole window, the
    sector command and the diagram exited 2 and the nets suite read 3/5."""
    assert run(["--grid-points", str(2**20)] + argv) == 0


def test_zero_padded_hermite_order_reads_as_its_value():
    """Leading zeros do not count against the order's length: 5000 of them
    read as order 5, which int() alone would refuse past 4300 digits."""
    space = parse_registry(f"fn h gaussian-hermite order={'0' * 5000}5\npair p f0=0 f1=h\n")
    want = parse_registry("fn h gaussian-hermite order=5\npair p f0=0 f1=h\n")
    assert np.array_equal(space.atoms[0].fn.samples, want.atoms[0].fn.samples)
