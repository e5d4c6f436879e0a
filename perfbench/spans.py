"""Span tracer for the per-layer metrics.

While installed, the tracer replaces each function in TARGETS by a wrapper
that records a span (name, start, end, parent, operation).  A function is
rebound wherever `weylnet` holds it: module attributes (`weyl_mul` lives in
`weyl`, `suites`, `states`, `gns` and the package itself) and dict values
(`suites.SUITES`).  Methods are replaced on their class.  `uninstall` puts
every original back.

Besides spans it keeps counters at the same boundaries:
- `funcspace.fft.calls` / `.points`: numpy rfft/irfft calls made from
  `funcspace` and `chiral`, and the points they transform (from array sizes);
- `symplectic.gram_entries` / `.atoms`: distinct cross-slot quadratures
  cached and atoms registered in every Space `load_registry` returned;
- `states.fock_computed` / `.keys_evaluated`: `Space.fock_norm_sq` calls made
  inside `eval_state`, and the key terms passed to `eval_state`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from types import FunctionType

# layer (module of weylnet) -> functions; "Class.method" wraps a method and
# "SymVector.__init__" records SymVector construction.
TARGETS = {
    "registry": ("load_registry",),
    "funcspace": (
        "pairing",
        "fock_norm_sq",
        "chiral_norm_sq",
        "localization",
        "derivative",
        "resample",
    ),
    "symplectic": (
        "SymVector.__init__",
        "Space.sigma",
        "Space.charges",
        "Space.assemble",
        "Space.psi_T",
        "Space.in_space",
    ),
    "weyl": (
        "weyl_mul",
        "weyl_star",
        "max_coeff_distance",
        "cocycle_defect",
        "parse_element",
        "CrossedProduct.product",
    ),
    "states": (
        "eval_state",
        "gram_psd",
        "state_coincidence_check",
        "regular_substitute_probe",
    ),
    "chiral": ("dalembert", "dalembert_inverse", "sigma_decomposed"),
    "gns": ("apply_elementary", "sector_trace", "norm_distance"),
    "nets": (
        "net_generators",
        "locality_report",
        "diagram_check",
        "sector_apply",
        "gauge_apply",
    ),
    "suites": (
        "suite_weyl_axioms",
        "suite_psi_t",
        "suite_states_positivity",
        "suite_chiral",
        "suite_gns",
        "suite_nets",
    ),
    "cli": ("main", "build_parser"),
}

COUNTERS = (
    "funcspace.fft.calls",
    "funcspace.fft.points",
    "symplectic.gram_entries",
    "symplectic.atoms",
    "states.fock_computed",
    "states.keys_evaluated",
)

FFT_MODULES = ("funcspace", "chiral")


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(l, t) for l, targets in TARGETS.items() for t in targets)


class _FftProxy:
    """numpy.fft with rfft/irfft counted."""

    def __init__(self, fft, counters: Counter):
        self._fft = fft
        self._counters = counters

    def rfft(self, a, n=None, *args, **kwargs):
        self._counters["funcspace.fft.calls"] += 1
        self._counters["funcspace.fft.points"] += len(a) if n is None else n
        return self._fft.rfft(a, n, *args, **kwargs)

    def irfft(self, a, n=None, *args, **kwargs):
        self._counters["funcspace.fft.calls"] += 1
        self._counters["funcspace.fft.points"] += 2 * (len(a) - 1) if n is None else n
        return self._fft.irfft(a, n, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fft, name)


class _NumpyProxy:
    """Stands in for a module's `np`, routing `np.fft` through _FftProxy."""

    def __init__(self, np, counters: Counter):
        self.fft = _FftProxy(np.fft, counters)
        self._np = np

    def __getattr__(self, name):
        return getattr(self._np, name)


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans = []  # open: name id; closed: (name id, start, end, parent, op)
        self.counters = Counter()
        self.op = 0
        self._stack = []
        self._spaces = []
        self._undo = []
        self._eval_state = self.names.index("states.eval_state")

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_return=None):
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(nid)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _count_keys(self, args):
        self.counters["states.keys_evaluated"] += len(args[2].terms())

    def _in_eval_state(self) -> bool:
        return any(self.spans[i] == self._eval_state for i in self._stack)

    def _count_fock(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_eval_state():
                self.counters["states.fock_computed"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in TARGETS:
            importlib.import_module(f"weylnet.{layer}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "weylnet" or name.startswith("weylnet.")
        }
        wrappers = {}  # id(original function) -> wrapper
        for layer, targets in TARGETS.items():
            mod = modules[f"weylnet.{layer}"]
            for target in targets:
                name = span_name(layer, target)
                hooks = {}
                if name == "states.eval_state":
                    hooks["on_call"] = self._count_keys
                elif name == "registry.load_registry":
                    hooks["on_return"] = self._spaces.append
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **hooks))
                else:
                    fn = getattr(mod, target)
                    wrappers[id(fn)] = self._wrap(name, fn, **hooks)
        space_cls = modules["weylnet.symplectic"].Space
        self._set(space_cls, "fock_norm_sq", self._count_fock(space_cls.__dict__["fock_norm_sq"]))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, FunctionType) and id(value) in wrappers:
                    self._set(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, FunctionType) and id(v) in wrappers:
                            self._set(value, k, wrappers[id(v)])
        for layer in FFT_MODULES:
            mod = modules[f"weylnet.{layer}"]
            self._set(mod, "np", _NumpyProxy(mod.np, self.counters))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def end_op(self):
        """Close the current operation: read the counters of its spaces."""
        for space in self._spaces:
            self.counters["symplectic.gram_entries"] += len(space._gram)
            self.counters["symplectic.atoms"] += len(space.atoms)
        self._spaces.clear()
        self.op += 1

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """`<span>.calls` and `<span>.self_s` for every target, plus counters."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        child_ns = [0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for idx, (nid, t0, t1, _, _) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += t1 - t0 - child_ns[idx]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (self_ns[nid] / 1e9, "s")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        keys = self.counters["states.keys_evaluated"]
        ratio = self.counters["states.fock_computed"] / keys if keys else 0.0
        out["states.fock_computed_per_key"] = (ratio, "ratio")
        return out

    def write(self, path):
        """Write the span table as JSON; times are ns on perf_counter_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
