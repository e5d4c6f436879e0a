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
f1; any other key is a parse error.  Rationals are written p/q.  Each load
rule is checked at its line, and its error names the line: `grid` samples
resampled onto the requested grid must be finite, a zero function fills a
0 slot, and a slot-0 function declares its integral and zero limits.
load_registry returns the Space of the pairs, one generator each.
"""

from __future__ import annotations

import re
from fractions import Fraction
from importlib import resources
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import BadGrid, RegistryParseError, clip
from .funcspace import (
    DEFAULT_GRID,
    HERMITE_MAX_ORDER,
    Grid,
    TestFunction,
    constant_function,
    hermite_gaussian,
    make_grid_function,
    make_kink,
    resample,
)
from .symplectic import Space


def _parse(tok: str, key: str, parse=Fraction):
    """parse(tok), a Fraction by default; a token it refuses is named with its key."""
    try:
        return parse(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {key} {clip(tok)}") from None


def _parse_range(tok: str, key: str) -> Tuple[Fraction, Fraction]:
    """An a:b value as two Fractions; any other number of parts is named with its key."""
    parts = tok.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad {key} {clip(tok)} (expected a:b)")
    return _parse(parts[0], key), _parse(parts[1], key)


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
            raise RegistryParseError(f"line {lineno}: expected key=value, got {clip(tok)}")
        k, v = tok.split("=", 1)
        if k in kv:
            raise RegistryParseError(f"line {lineno}: duplicate key {clip(k)}")
        if k not in allowed:
            raise RegistryParseError(f"line {lineno}: unknown key {clip(k)} for {what}")
        kv[k] = v
    return kv


def _build_function(
    kind: str, kv: Dict[str, str], grid: Grid, lineno: int, steps: Dict[tuple, TestFunction]
) -> TestFunction:
    """The function a `fn` line declares.  `steps` holds the kink steps built
    so far, by (center, width, compact): a derivative kink with a step twin
    is that step's `deriv`, the same samples make_kink would build again."""
    try:
        if kind == "kink":
            compact = kv.get("compact", "true").lower()
            if compact not in ("true", "false"):
                raise RegistryParseError(f"line {lineno}: compact must be true/false")
            form = kv.get("form", "step")
            if form not in ("step", "deriv"):
                raise RegistryParseError(f"line {lineno}: form must be step/deriv")
            center, width = _parse(kv["center"], "center"), _parse(kv["width"], "width")
            shape = (center, width, compact == "true")
            if form == "deriv" and shape in steps:
                return steps[shape].deriv
            fn = make_kink(*shape, grid=grid, form=form)
            if form == "step":
                steps[shape] = fn
            return fn
        if kind == "gaussian-hermite":
            order = re.fullmatch(r"([+-]?)0*([0-9]+)", kv["order"])
            if not order:
                raise ValueError("gaussian-hermite order must be an integer")
            if len(order[2]) > 9:  # int() would echo every digit, up to 4300 of them
                shown = clip(order[0])
                raise ValueError(f"gaussian-hermite order {shown} outside 0..{HERMITE_MAX_ORDER}")
            center = _parse(kv.get("center", "0"), "center")
            return hermite_gaussian(int(order[1] + order[2]), center, grid)
        if kind == "constant":
            return constant_function(_parse(kv["value"], "value"), grid)
        # grid, the last kind in FN_KEYS
        w0, w1 = _parse_range(kv["window"], "window")
        values = np.array([_parse(t, "values", float) for t in kv["values"].split(",")])
        g = Grid(w0, w1, len(values))
        l0, l1 = _parse_range(kv["limits"], "limits")
        integral = _parse(kv["integral"], "integral") if "integral" in kv else None
        return resample(make_grid_function(values, g, l0, l1, integral), grid)
    except RegistryParseError:
        raise
    except KeyError as e:
        raise RegistryParseError(f"line {lineno}: missing key {e}") from None
    except Exception as e:
        raise RegistryParseError(f"line {lineno}: {e}") from None


def parse_registry(text: str, grid: Grid = DEFAULT_GRID, source: str = "<string>") -> Space:
    try:  # sampled once here, so a grid numpy refuses is not blamed on a line
        grid.xs()
    except (MemoryError, ValueError):
        raise BadGrid(f"grid of {grid.n} points is too large to sample") from None
    functions: Dict[str, TestFunction] = {}
    steps: Dict[tuple, TestFunction] = {}
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
                raise RegistryParseError(f"line {lineno}: duplicate fn {clip(name)}")
            kind = tokens[2]
            if kind not in FN_KEYS:
                raise RegistryParseError(f"line {lineno}: unknown function kind {clip(kind)}")
            kv = _parse_kv(tokens[3:], FN_KEYS[kind], kind, lineno)
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite sample
                fn = _build_function(kind, kv, grid, lineno, steps)
            for part, what in ((fn, "function"), (fn.deriv, "derivative")):
                if part is not None and not np.isfinite(part.samples).all():
                    raise RegistryParseError(f"line {lineno}: {what} has a non-finite sample")
            functions[name] = None if fn.is_zero() else fn  # a zero function fills a 0 slot
        elif record == "pair":
            if name in pairs:
                raise RegistryParseError(f"line {lineno}: duplicate pair {clip(name)}")
            kv = _parse_kv(tokens[2:], PAIR_KEYS, "pair", lineno)
            refs = [kv.get(key, "0") for key in PAIR_KEYS]
            for ref in refs:
                if ref != "0" and ref not in functions:
                    raise RegistryParseError(f"line {lineno}: unknown fn {clip(ref)}")
            f0, _ = pairs[name] = tuple(None if ref == "0" else functions[ref] for ref in refs)
            what = f"line {lineno}: slot-0 function {clip(name + '.0')}"
            if f0 is not None and f0.integral is None:
                raise RegistryParseError(f"{what} needs a declared integral")
            if f0 is not None and (f0.left_limit or f0.right_limit):
                raise RegistryParseError(f"{what} must have zero limits")
        else:
            raise RegistryParseError(f"line {lineno}: unknown record {clip(record)}")
    return Space(grid, pairs, source)


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
