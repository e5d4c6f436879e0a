"""The names the benchmark's span tracer binds must exist in the program.

`perfbench/spans.py` wraps each function in its TARGETS by name; it is read
here as text, never imported or run, so this test changes nothing there.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import weylnet
from weylnet import suites, weyl
from weylnet.symplectic import Space

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_span_target_is_a_function():
    targets = _targets()
    assert targets
    for layer, names in targets.items():
        module = importlib.import_module(f"weylnet.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)
            assert inspect.isfunction(obj), f"{layer}.{name}"


def test_every_space_method_bound_by_name_is_a_function():
    # spans.py also wraps Space methods it names as `__dict__["..."]`
    # literals outside TARGETS (the `states.fock_computed` counter)
    names = re.findall(r'__dict__\["(\w+)"\]', SPANS.read_text())
    assert names
    for name in names:
        assert inspect.isfunction(Space.__dict__.get(name)), f"Space.{name}"


def test_package_root_binds_weyl_mul_and_suites_bind_their_entry_points():
    assert weylnet.weyl_mul is weyl.weyl_mul
    entry_points = [getattr(suites, name) for name in _targets()["suites"]]
    assert entry_points == list(suites.SUITES.values())
