"""Command-line harness.

Suite runs:

    weylnet --suite all --seed 7 --out report.json
    weylnet --suite nets --registry my.registry --grid-points 1024 --window 16

Ad-hoc subcommands (same global flags apply):

    weylnet state eval --kind field_f --element "1+0i * W[aC] - W[0]"
    weylnet state gram --kind fock_a --count 6
    weylnet chiral roundtrip --combo "aC + 3/2 c0"
    weylnet chiral decompose --combo "q0"
    weylnet net locality --kind C --i1=-17/8:-7/8 --i2=7/8:17/8
    weylnet net sector --element q0 --interval=-9/8:9/8 --apply "W[c1]"
    weylnet net gauge --n 0.3 --r=-1.2 --apply "W[T]"
    weylnet net diagram --regularizer T0 --interval=-9/8:9/8

Interval endpoints are rationals p/q separated by a colon; use the
--flag=value form for values that begin with a minus sign.  Exit status: 0 on
success with all checks passing, 1 when a suite or report check fails, 2 on
registry/element/argument parse failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .chiral import dalembert, roundtrip_error
from .errors import WeylnetError
from .funcspace import Grid, Interval
from .registry import load_registry
from .states import STATES, eval_state, gram_psd
from .suites import CHECK_BY_NAME, SUITES, _rand_vector, run_suite, serialize_report
from .nets import (
    LOCAL_KINDS, GaugeElement, diagram_check, gauge_apply, locality_report, make_sector,
    sector_apply,
)
from .weyl import IDENTITY, parse_combo, parse_element, weyl_add, weyl_word


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


def _at_least(low: int, what: str):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {n}")
        return n

    parse.__name__ = what  # argparse names a non-integer "invalid <what> value"
    return parse


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _parse_interval(text: str) -> Interval:
    try:
        a, b = text.split(":")
        return Interval(Fraction(a), Fraction(b))
    except (ValueError, ZeroDivisionError) as e:
        raise WeylnetError(f"bad interval {text!r}: {e}") from None


def _rand_words(space, seed: int, count: int, names):
    rng = np.random.default_rng(seed)
    words = [IDENTITY]
    for _ in range(count - 1):
        v = _rand_vector(space, rng, names)
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        words.append(weyl_add(weyl_word(v, coeff), IDENTITY))
    return words


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylnet",
        description="verification harness for the Weyl-algebra toolkit",
    )
    parser.add_argument("--registry", metavar="PATH", default=None)
    parser.add_argument("--suite", metavar="NAME", choices=sorted(SUITES) + ["all"])
    parser.add_argument("--seed", metavar="N", type=_at_least(0, "seed"), default=1)
    parser.add_argument("--out", metavar="PATH", default=None)
    parser.add_argument("--grid-points", metavar="N", type=int, default=4096)
    parser.add_argument("--window", metavar="X", type=_rational, default=Fraction(32))

    sub = parser.add_subparsers(dest="command")

    state = sub.add_parser("state", help="evaluate states and Gram matrices")
    state_sub = state.add_subparsers(dest="action", required=True)
    ev = state_sub.add_parser("eval")
    ev.add_argument("--kind", required=True, choices=sorted(STATES))
    ev.add_argument("--element", required=True)
    gram = state_sub.add_parser("gram")
    gram.add_argument("--kind", required=True, choices=sorted(STATES))
    gram.add_argument("--count", type=_at_least(1, "count"), default=6)

    chiral = sub.add_parser("chiral", help="mover decomposition checks")
    chiral_sub = chiral.add_subparsers(dest="action", required=True)
    rt = chiral_sub.add_parser("roundtrip")
    rt.add_argument("--combo", required=True)
    dec = chiral_sub.add_parser("decompose")
    dec.add_argument("--combo", required=True)

    net = sub.add_parser("net", help="interval nets, sectors, gauge action")
    net_sub = net.add_subparsers(dest="action", required=True)
    loc = net_sub.add_parser("locality")
    loc.add_argument("--kind", required=True, choices=list("ABCQEF"))
    loc.add_argument("--i1", required=True)
    loc.add_argument("--i2", required=True)
    sec = net_sub.add_parser("sector")
    sec.add_argument("--element", required=True, help="generator name of the localized charge")
    sec.add_argument("--interval", required=True)
    sec.add_argument("--apply", required=True)
    gauge = net_sub.add_parser("gauge")
    gauge.add_argument("--n", type=_finite, default=0.0)
    gauge.add_argument("--r", type=_finite, default=0.0)
    gauge.add_argument("--apply", required=True)
    diag = net_sub.add_parser("diagram")
    diag.add_argument("--regularizer", required=True)
    diag.add_argument("--interval", required=True)
    return parser


def _run_suite_command(args, grid: Grid) -> int:
    started = time.monotonic()
    report = run_suite(args.suite, args.seed, registry_path=args.registry, grid=grid)
    duration = time.monotonic() - started
    text = serialize_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    counts = report["counts"]
    # with the report on stdout, the summary goes to stderr so stdout stays JSON
    print(
        f"suite {args.suite}: {counts['pass']}/{counts['total']} checks passed "
        f"in {duration:.2f}s",
        file=sys.stdout if args.out else sys.stderr,
    )
    return 0 if report["passed"] else 1


def _run_subcommand(args, grid: Grid) -> int:
    space = load_registry(args.registry, grid)
    if args.command == "state":
        state = STATES[args.kind](space)
        if args.action == "eval":
            val = eval_state(space, state, parse_element(space, args.element))
            print(f"{val.real:.12g}{val.imag:+.12g}i")
            return 0
        pool = [n for n in space.generator_names() if state.domain(space, space.generator(n))]
        words = _rand_words(space, args.seed, args.count, pool)
        M, min_eig = gram_psd(space, state, words)
        norm = float(np.linalg.norm(M, 2))
        ok = CHECK_BY_NAME["gram-min-eigenvalue"].passes(min_eig, max(1.0, norm))
        print(f"gram {len(words)}x{len(words)} min eigenvalue {min_eig:.6g} "
              f"norm {norm:.6g} {'PSD' if ok else 'NOT PSD'}")
        return 0 if ok else 1
    if args.command == "chiral":
        v = parse_combo(space, args.combo)
        pair = dalembert(space, v)
        if args.action == "decompose":
            print(f"c_plus {pair.c_plus}  c_minus {pair.c_minus}")
            for side, theta in (("plus", pair.theta_plus), ("minus", pair.theta_minus)):
                print(f"theta_{side} limits {theta.left_limit} .. {theta.right_limit}")
            return 0
        err = roundtrip_error(space, v, pair)
        print(f"roundtrip max pointwise error {err:.3e}")
        return 0 if CHECK_BY_NAME["mover-roundtrip"].passes(err) else 1
    if args.command == "net":
        if args.action == "locality":
            defect = locality_report(
                space, args.kind, _parse_interval(args.i1), _parse_interval(args.i2)
            )
            local = args.kind in LOCAL_KINDS
            check = "locality-observable-nets" if local else "field-net-disjoint-phase"
            ok = CHECK_BY_NAME[check].passes(defect)
            print(f"kind {args.kind} defect {defect:.3e} {'PASS' if ok else 'FAIL'}")
            return 0 if ok else 1
        if args.action == "sector":
            rho = make_sector(
                space, space.generator(args.element), _parse_interval(args.interval)
            )
            print(sector_apply(space, rho, parse_element(space, getattr(args, "apply"))))
            return 0
        if args.action == "gauge":
            out = gauge_apply(
                space, GaugeElement(n=args.n, r=args.r), parse_element(space, getattr(args, "apply"))
            )
            print(out)
            return 0
        clauses = diagram_check(
            space, space.generator(args.regularizer), _parse_interval(args.interval)
        )
        for name, holds in clauses.items():
            print(f"{name}: {'PASS' if holds else 'FAIL'}")
        ok = all(clauses.values())
        print(f"diagram: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    raise WeylnetError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None and args.suite is None:
        parser.print_usage(sys.stderr)
        print("error: give --suite NAME or a subcommand", file=sys.stderr)
        return 2
    try:
        grid = Grid(-args.window, args.window, args.grid_points)
        if args.command is None:
            return _run_suite_command(args, grid)
        return _run_subcommand(args, grid)
    except (WeylnetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
