"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _hermite_function(k: int, p: np.ndarray) -> np.ndarray:
    norm = 1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return norm * np.polynomial.hermite.hermval(p, [0] * k + [1]) * np.exp(-0.5 * p**2)


@pytest.mark.parametrize("odd, even", [(1, 0), (3, 2), (5, 4)])
def test_closed_form_fock_norm_matches_brute_force_integral(odd, even):
    p = np.linspace(0.0, 16.0, 400001)
    inv_p = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0)
    integrand = _hermite_function(odd, p) ** 2 * inv_p + p * _hermite_function(even, p) ** 2
    brute = 2.0 * np.trapezoid(integrand, p)  # the integrand is even in p
    assert oracles.hermite_fock_norm_sq(odd, even) == pytest.approx(brute, rel=1e-9)


def _bindings():
    """Every module attribute, dict entry and class attribute of weylnet."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "weylnet" and not name.startswith("weylnet."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    out[(name, key, k)] = v
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    out[(name, key, "." + k)] = v
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    import weylnet.cli  # noqa: F401  (binds load_registry, parse_element, ...)

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    weyl_mul = before[("weylnet.weyl", "weyl_mul")]
    rebound = [k for k, v in before.items() if v is weyl_mul]
    assert {k[0] for k in rebound} == {"weylnet", "weylnet.weyl", "weylnet.suites", "weylnet.states"}
    assert all(during[k] is not weyl_mul for k in rebound)
    suite = before[("weylnet.suites", "suite_nets")]
    assert during[("weylnet.suites", "SUITES", "nets")] is not suite
    assert during[("weylnet.symplectic", "SymVector", ".__init__")].__wrapped__ is (
        before[("weylnet.symplectic", "SymVector", ".__init__")]
    )


def _traced_counts(workload: str, seed: int) -> dict:
    tracer = spans.Tracer()
    ops = workloads.WORKLOADS[workload].make_round(random.Random(seed))
    done = run.run_round(ops, tracer)
    assert [p for op, _, p in done if op.well_formed] == [None] * sum(op.well_formed for op in ops)
    return {name: value for name, (value, unit) in tracer.metrics().items() if unit == "count"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 3)
    assert first == _traced_counts(workload, 3)
    assert first["registry.load_registry.calls"] > 0
