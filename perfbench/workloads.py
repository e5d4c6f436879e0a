"""The benchmark's workloads: their operations, inputs and output checks.

A round is a fixed list of operations drawn from the run's random stream;
runs attempt whole rounds, so failed/attempted is the same in every run.
Every operation loads its own Space through `load_registry`, as each
`weylnet` invocation does: a reused Space keeps its Fock cache and the
generators `dalembert_inverse` registers into it, which no user run sees.

Program entry points are looked up on their modules at call time, so the
wrappers of spans.Tracer see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

import weylnet.cli
import weylnet.registry
import weylnet.suites
from weylnet.funcspace import Grid

from oracles import Registry, hermite_fock_norm_sq

REGISTRY = Registry(
    (Path(weylnet.registry.__file__).parent / "data" / "default.registry").read_text()
)
WINDOW = Fraction(32)

# suite -> number of checks its report must hold
ALGEBRA_SUITES = {"weyl-axioms": 6, "psi-T": 2, "gns": 5, "nets": 5}
SPECTRAL_SUITES = {"states-positivity": 3, "chiral": 4}

SIGMA_VECTORS = 32  # random vectors per algebra operation for the sigma checks
SIGMA_TOL = 1e-9
ANTISYMMETRY_TOL = 1e-12
FOCK_REL_TOL = 1e-6


@dataclass
class Operation:
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # a problem, or None
    well_formed: bool = True  # False: bad input that must exit 2


@dataclass(frozen=True)
class Workload:
    name: str
    grid_points: int
    traced_rounds: int  # rounds the traced run records
    make_round: Callable[[random.Random], List[Operation]]


def _suite_pass(suites: dict, points: int, seed: int):
    g = Grid(-WINDOW, WINDOW, points)
    space = weylnet.registry.load_registry(None, g)
    reports = [weylnet.suites.run_suite(name, seed, grid=g, space=space) for name in suites]
    return space, reports


def _check_reports(suites: dict, reports) -> Optional[str]:
    for name, report in zip(suites, reports):
        counts = report["counts"]
        if not report["passed"] or counts["total"] != suites[name]:
            failed = [c["name"] for s in report["sections"] for c in s["checks"] if c["status"] != "pass"]
            return f"suite {name}: {counts['pass']}/{counts['total']} passed, failing {failed}"
    return None


# ---------------------------------------------------------------------------
# algebra


def _random_combo(rng: random.Random):
    names = rng.sample(sorted(REGISTRY.pairs), 2)
    return [(n, Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for n in names]


def _check_sigma(space, seed: int) -> Optional[str]:
    """sigma((f0, f1), n1) = integral f0 = F_c exactly from the declarations,
    and sigma is antisymmetric."""
    rng = random.Random(seed)
    n1 = space.generator("n1")
    vectors = []
    for _ in range(SIGMA_VECTORS):
        combo = _random_combo(rng)
        v = space.vector(dict(combo))
        f_c = sum(k * REGISTRY.charges(n).c for n, k in combo)
        got = space.sigma(v, n1)
        if abs(got - float(f_c)) > SIGMA_TOL:
            return f"sigma({combo}, n1) = {got!r}, F_c = {f_c}"
        vectors.append(v)
    for v, w in zip(vectors, vectors[1:]):
        if abs(space.sigma(v, w) + space.sigma(w, v)) > ANTISYMMETRY_TOL:
            return f"sigma not antisymmetric on {v}, {w}"
    return None


def algebra_round(rng: random.Random) -> List[Operation]:
    seed = rng.randrange(2**31)

    def check(out):
        space, reports = out
        return _check_reports(ALGEBRA_SUITES, reports) or _check_sigma(space, seed)

    return [Operation(lambda: _suite_pass(ALGEBRA_SUITES, 4096, seed), check)]


# ---------------------------------------------------------------------------
# spectral


def _check_fock(space) -> Optional[str]:
    for name in ("aL", "aC", "aR"):
        exact = hermite_fock_norm_sq(*REGISTRY.hermite_orders(name))
        got = space.fock_norm_sq(space.generator(name))
        if abs(got - exact) > FOCK_REL_TOL * exact:
            return f"fock_norm_sq({name}) = {got!r}, exact {exact!r}"
    return None


def spectral_round(rng: random.Random) -> List[Operation]:
    seed = rng.randrange(2**31)

    def check(out):
        space, reports = out
        return _check_reports(SPECTRAL_SUITES, reports) or _check_fock(space)

    return [Operation(lambda: _suite_pass(SPECTRAL_SUITES, 16384, seed), check)]


# ---------------------------------------------------------------------------
# adhoc


@dataclass(frozen=True)
class Result:
    code: object
    out: str


def _cli(argv: List[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = weylnet.cli.main(argv)
    except SystemExit as e:  # argparse rejects
        code = e.code
    return Result(code, out.getvalue())


def _expect(code, pattern: str, test: Callable[[re.Match], Optional[str]] = lambda m: None):
    def check(res: Result) -> Optional[str]:
        if res.code != code:
            return f"exit {res.code!r}, expected {code}: {res.out.strip()!r}"
        m = re.search(pattern, res.out, re.M)
        if m is None:
            return f"output {res.out.strip()!r} lacks {pattern!r}"
        return test(m)

    return check


def _near(expected: complex, tol: float):
    def test(m: re.Match) -> Optional[str]:
        got = complex(m.group(1).replace("i", "j"))
        if abs(got - expected) > tol:
            return f"value {got!r}, expected {expected!r}"
        return None

    return test


def _decompose_limits(pair: str) -> str:
    ch = REGISTRY.charges(pair)
    return (
        f"c_plus {(ch.q + ch.c) / 2}  c_minus {(ch.q - ch.c) / 2}\n"
        f"theta_plus limits {ch.left / 2} .. {(ch.right + ch.c) / 2}\n"
        f"theta_minus limits {ch.left / 2} .. {(ch.right - ch.c) / 2}"
    )


CPLX = r"([-+0-9.e]+[-+][0-9.e]+[ij])"
LOCAL = ["--i1=-17/8:-7/8", "--i2=7/8:17/8"]
MID = "--interval=-9/8:9/8"

# Bad input, each must exit 2.  None does today; see README.md.
BAD_INPUTS = (
    ["state", "eval", "--kind", "field_f", "--element", "nan * W[aC]"],
    ["state", "eval", "--kind", "field_f", "--element", "1e400 * W[aC]"],
    ["state", "eval", "--kind", "field_f", "--element", "W[1/0 aC]"],
    ["--window", "abc", "state", "eval", "--kind", "field_f", "--element", "W[aC]"],
)


def adhoc_round(rng: random.Random) -> List[Operation]:
    """One session of the README's ad-hoc commands, with a drawn Gram seed,
    state-eval coefficient and gauge element."""
    seed = ["--seed", str(rng.randrange(2**31))]
    z = complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
    n, r = round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3)
    element = f"{z.real:.3f}{z.imag:+.3f}i * W[aC] - W[0]"
    field = z * math.exp(-hermite_fock_norm_sq(*REGISTRY.hermite_orders("aC")) / 4) - 1
    t, q0, c1 = REGISTRY.charges("T"), REGISTRY.charges("q0"), REGISTRY.charges("c1")
    gauge = cmath.exp(-1j * (n * float(t.c) + r * float(t.q)))
    sector = cmath.exp(-1j * float(q0.right * c1.c))
    coeff = r"^WeylElement\(\(" + CPLX + r"\)W\["
    commands = [
        (seed + ["state", "eval", "--kind", "field_f", "--element", element],
         _expect(0, r"^" + CPLX + r"$", _near(field, 1e-6))),
        (seed + ["state", "eval", "--kind", "product_p", "--element", element],
         _expect(0, r"^" + CPLX + r"$", _near(field, 1e-6))),
        (seed + ["state", "gram", "--kind", "fock_a", "--count", "6"],
         _expect(0, r"^gram 6x6 .* PSD$")),
        (seed + ["state", "gram", "--kind", "field_f", "--count", "6"],
         _expect(0, r"^gram 6x6 .* PSD$")),
        (["chiral", "roundtrip", "--combo", "aC + 3/2 c0"],
         _expect(0, r"^roundtrip max pointwise error (\S+)$",
                 lambda m: None if float(m.group(1)) < 1e-8 else f"roundtrip error {m.group(1)}")),
        (["chiral", "decompose", "--combo", "q0"],
         _expect(0, "^" + re.escape(_decompose_limits("q0")) + "$")),
        (["net", "locality", "--kind", "C"] + LOCAL, _expect(0, r"^kind C defect \S+ PASS$")),
        (["net", "locality", "--kind", "F"] + LOCAL, _expect(0, r"^kind F defect \S+ PASS$")),
        (["net", "sector", "--element", "q0", MID, "--apply", "W[c1]"],
         _expect(0, coeff, _near(sector, 1e-5))),
        (["net", "gauge", f"--n={n}", f"--r={r}", "--apply", "W[T]"],
         _expect(0, coeff, _near(gauge, 1e-5))),
        (["net", "diagram", "--regularizer", "T0", MID], _expect(0, r"^diagram: PASS$")),
    ]
    ops = [Operation(lambda a=argv: _cli(a), check) for argv, check in commands]
    ops += [Operation(lambda a=argv: _cli(a), _expect(2, ""), well_formed=False) for argv in BAD_INPUTS]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("algebra", 4096, 4, algebra_round),
        Workload("spectral", 16384, 4, spectral_round),
        Workload("adhoc", 4096, 4, adhoc_round),
    )
}
