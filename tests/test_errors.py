"""`errors.largest`, the one defect reduction, and the record a check writes
when its value is not finite.

`largest` refuses a NaN or an inf wherever it stands, where max() keeps the
first argument of a comparison with a NaN: max(0.0, nan) is 0.0.  A measure
that returns a non-finite value, or a (value, scale) pair whose product is
not finite, becomes an `error` record named for its check, in either mode:
an "at-least" check would otherwise pass at +inf.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from weylnet.errors import NonFiniteDefect, WeylnetError, largest
from weylnet.registry import load_registry
from weylnet.suites import CHECK_BY_NAME, CHECKS

BAD = [math.nan, math.inf, -math.inf]


def test_largest_of_nothing_is_zero():
    assert largest([]) == 0.0 and type(largest([])) is float
    assert largest(iter(())) == 0.0


def test_largest_is_the_python_float_maximum():
    assert largest([0.5, 2.0, 1.0]) == 2.0
    got = largest(np.array([1e-16, 3e-15, 2e-15]))
    assert got == 3e-15 and type(got) is float
    assert type(largest([np.float64(0.25)])) is float
    assert largest(x for x in (0.0, 0.0)) == 0.0


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
def test_largest_refuses_a_non_finite_defect(bad, where):
    defects = [0.1, 0.2, 0.3, 0.4, 0.5]
    defects[where] = bad
    assert issubclass(NonFiniteDefect, WeylnetError)
    with pytest.raises(NonFiniteDefect, match="non-finite defect"):
        largest(defects)
    with pytest.raises(NonFiniteDefect):
        largest(np.array(defects))


@pytest.fixture(scope="module")
def outcomes():
    """(space, each measure's outcome on it), every measure run once."""
    space, rng, out = load_registry(), np.random.default_rng(7), {}
    for check in CHECKS:
        if check.measure not in out:
            out[check.measure] = check.measure(space, rng)
    return space, out


def _records(space, check, outcome) -> dict:
    """The records of `check` and of the checks that share its measure, with
    that measure returning `outcome`."""
    def measure(space, rng):
        return outcome

    shared = [c for c in CHECKS if c.measure is check.measure]
    memo, rng = {}, np.random.default_rng(0)
    return {c.name: replace(c, measure=measure).run(space, rng, memo) for c in shared}


def _patched(outcome, name, bad):
    """`outcome` with `name`'s value, and only that, replaced by `bad`."""
    if isinstance(outcome, dict):
        return {**outcome, name: bad}
    if isinstance(outcome, tuple):
        return (bad, outcome[1])
    return bad


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", [check.name for check in CHECKS])
def test_non_finite_value_is_an_error_record(name, bad, outcomes):
    space, out = outcomes
    check = CHECK_BY_NAME[name]
    real = _records(space, check, out[check.measure])
    got = _records(space, check, _patched(out[check.measure], name, bad))
    assert got[name]["status"] == "error" and got[name]["error"] == "NonFiniteDefect"
    assert got[name]["message"].startswith(f"{name}: value ")
    assert set(got[name]) == {"name", "status", "error", "message"}
    # the other keys of a shared measure keep their records
    assert {k: v for k, v in got.items() if k != name} == {
        k: v for k, v in real.items() if k != name
    }


def test_at_least_check_no_longer_passes_at_inf(outcomes):
    """The comparison alone passes an at-least check at +inf; the record does not."""
    space, out = outcomes
    check = CHECK_BY_NAME["regular-substitute-hermiticity-violation"]
    assert check.mode == "at-least" and check.passes(math.inf)
    record = _records(space, check, math.inf)[check.name]
    assert (record["status"], record["error"]) == ("error", "NonFiniteDefect")


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_gram_scale_that_is_not_finite_is_an_error_record(bad, outcomes):
    space, out = outcomes
    check = CHECK_BY_NAME["gram-min-eigenvalue"]
    value, scale = out[check.measure]
    assert math.isfinite(value) and scale >= 1.0
    for pair in ((value, bad), (bad, scale), (0.0, bad)):
        record = _records(space, check, pair)[check.name]
        assert (record["status"], record["error"]) == ("error", "NonFiniteDefect"), pair
