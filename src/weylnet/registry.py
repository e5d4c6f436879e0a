"""Line-oriented generator registry.

A registry file declares named test functions and named Cauchy-data pairs:

    # functions
    fn tka  kink center=0 width=1 compact=false form=step
    fn dtka kink center=0 width=1 compact=false form=deriv
    fn hgC2 gaussian-hermite order=2 center=0
    fn one  constant value=1
    fn tiny grid window=-4:4 limits=0:0 values=0,0.1,0.4,...  integral=0

    # pairs (either slot may be 0)
    pair T  f0=dtka f1=tka
    pair n1 f0=0    f1=one

Each kind takes only the keys FN_KEYS lists for it, and a pair only f0 and
f1; any other key is a parse error.  Rationals are written p/q.
load_registry returns a Space built from the pairs, one generator each, all
functions resampled onto the requested grid.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import RegistryParseError, WeylnetError
from .funcspace import (
    DEFAULT_GRID,
    Grid,
    TestFunction,
    constant_function,
    hermite_gaussian,
    make_grid_function,
    make_kink,
)
from .symplectic import Space


def _frac(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise RegistryParseError(f"bad rational {tok!r}: {e}") from None


# the keys each function kind takes
FN_KEYS = {
    "kink": ("center", "width", "compact", "form"),
    "gaussian-hermite": ("order", "center"),
    "constant": ("value",),
    "grid": ("window", "limits", "values", "integral"),
}
PAIR_KEYS = ("f0", "f1")


def _parse_kv(tokens, allowed, what, lineno) -> Dict[str, str]:
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise RegistryParseError(f"line {lineno}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in kv:
            raise RegistryParseError(f"line {lineno}: duplicate key {k!r}")
        if k not in allowed:
            raise RegistryParseError(f"line {lineno}: unknown key {k!r} for {what}")
        kv[k] = v
    return kv


def _build_function(kind: str, kv: Dict[str, str], grid: Grid, lineno: int) -> TestFunction:
    try:
        if kind == "kink":
            compact = kv.get("compact", "true").lower()
            if compact not in ("true", "false"):
                raise RegistryParseError(f"line {lineno}: compact must be true/false")
            form = kv.get("form", "step")
            if form not in ("step", "deriv"):
                raise RegistryParseError(f"line {lineno}: form must be step/deriv")
            return make_kink(
                _frac(kv["center"]),
                _frac(kv["width"]),
                compact == "true",
                grid=grid,
                form=form,
            )
        if kind == "gaussian-hermite":
            return hermite_gaussian(int(kv["order"]), _frac(kv.get("center", "0")), grid)
        if kind == "constant":
            return constant_function(_frac(kv["value"]), grid)
        # grid, the last kind in FN_KEYS
        w0, w1 = (_frac(t) for t in kv["window"].split(":"))
        values = np.array([float(t) for t in kv["values"].split(",")])
        g = Grid(w0, w1, len(values))
        l0, l1 = (_frac(t) for t in kv["limits"].split(":"))
        integral = _frac(kv["integral"]) if "integral" in kv else None
        return make_grid_function(values, g, l0, l1, integral)
    except RegistryParseError:
        raise
    except KeyError as e:
        raise RegistryParseError(f"line {lineno}: missing key {e}") from None
    except Exception as e:
        raise RegistryParseError(f"line {lineno}: {e}") from None


def parse_registry(text: str, grid: Grid = DEFAULT_GRID, source: str = "<string>") -> Space:
    functions: Dict[str, TestFunction] = {}
    pairs: Dict[str, Tuple[Optional[TestFunction], Optional[TestFunction]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        record, name = tokens[0], tokens[1] if len(tokens) > 1 else None
        if name is None:
            raise RegistryParseError(f"line {lineno}: missing name")
        if record == "fn":
            if len(tokens) < 3:
                raise RegistryParseError(f"line {lineno}: fn needs a kind")
            if name in functions:
                raise RegistryParseError(f"line {lineno}: duplicate fn {name!r}")
            kind = tokens[2]
            if kind not in FN_KEYS:
                raise RegistryParseError(f"line {lineno}: unknown function kind {kind!r}")
            kv = _parse_kv(tokens[3:], FN_KEYS[kind], kind, lineno)
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite sample
                fn = functions[name] = _build_function(kind, kv, grid, lineno)
            for part, what in ((fn, "function"), (fn.deriv, "derivative")):
                if part is not None and not np.isfinite(part.samples).all():
                    raise RegistryParseError(f"line {lineno}: {what} has a non-finite sample")
        elif record == "pair":
            if name in pairs:
                raise RegistryParseError(f"line {lineno}: duplicate pair {name!r}")
            kv = _parse_kv(tokens[2:], PAIR_KEYS, "pair", lineno)
            slots = []
            for key in PAIR_KEYS:
                ref = kv.get(key, "0")
                if ref == "0":
                    slots.append(None)
                elif ref in functions:
                    slots.append(functions[ref])
                else:
                    raise RegistryParseError(f"line {lineno}: unknown fn {ref!r}")
            pairs[name] = tuple(slots)
        else:
            raise RegistryParseError(f"line {lineno}: unknown record {record!r}")
    try:
        return Space(grid, pairs, source)
    except WeylnetError as e:
        raise RegistryParseError(str(e)) from None


def load_registry(path: Optional[str] = None, grid: Grid = DEFAULT_GRID) -> Space:
    """Load a registry file; None loads the packaged default.  The Space
    records its source: the path as given, or "default"."""
    if path is None:
        text = resources.files("weylnet.data").joinpath("default.registry").read_text()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise RegistryParseError(f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x} at offset {e.start})") from None
    return parse_registry(text, grid, path or "default")
