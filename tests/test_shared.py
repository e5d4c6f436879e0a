"""One computation per distinct function.

Atoms that hold one TestFunction object share a representative
(`Space.rep`), and every array that depends on the function alone is
computed once for it: the Gram quadratures, the antiderivatives, the Fock
columns and the split table's integrals.  The counts below are exact on the
default registry at 4096 points; the oracle compares a registry whose pairs
share functions with a copy that declares each shared function again under
a fresh name, so that no two atoms share an object there.
"""

from pathlib import Path

import numpy as np
import pytest

from weylnet import chiral, funcspace, symplectic
from weylnet.chiral import split_table
from weylnet.funcspace import DEFAULT_GRID
from weylnet.registry import load_registry, parse_registry
from weylnet.suites import run_suite
from weylnet.symplectic import Space

SHARED = Path(__file__).parent / "data" / "shared.registry"
SPECTRAL = ("states-positivity", "chiral")


@pytest.fixture
def warm():
    """Both Fock kernels and the unit kink of the default grid, built before any count."""
    for slot in (0, 1):
        funcspace._fock_kernel(DEFAULT_GRID, slot)
    funcspace._unit_kink(DEFAULT_GRID)


def _counted(monkeypatch, owner, name) -> list:
    """The argument tuples of every call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_default_atoms_share_two_functions():
    space = load_registry()
    names = [atom.name for atom in space.atoms]
    shared = {names[a]: names[r] for a, r in enumerate(space.rep) if r != a}
    assert shared == {"q0.1": "T0.1", "q3.1": "T3.1"}
    assert all(space.atoms[a].fn is space.atoms[r].fn for a, r in enumerate(space.rep))


def test_gram_runs_one_quadrature_per_pair_of_representatives(monkeypatch, warm):
    """9 slot-0 and 7 distinct slot-1 functions: 63 quadratures fill the 81
    Gram keys at load, and a suite run adds none."""
    quads = _counted(monkeypatch, symplectic, "_simpson_value")
    space = load_registry()
    assert len(quads) == 63 and len(space._gram) == 81
    rep = space.rep
    assert all(g == space._gram[rep[i], rep[j]] for (i, j), g in space._gram.items())


def test_split_table_takes_one_dot_per_cross_slot_pair_of_representatives(monkeypatch, warm):
    space = load_registry()
    dots = _counted(monkeypatch, chiral, "dot")
    split_table(space)
    assert len(dots) == 126 == 2 * 9 * 7


def test_the_spectral_suites_assemble_each_vector_once(monkeypatch, warm):
    """The mover loop's 10 vectors are assembled by `dalembert` alone: the
    round trip reads the pair's own Cauchy data."""
    space = load_registry()
    calls = _counted(monkeypatch, Space, "assemble")
    for suite in SPECTRAL:
        run_suite(suite, 7, space=space)
    assert len(calls) == 10


def test_each_fock_column_is_built_once_per_representative(monkeypatch, warm):
    """The spectral suites fill 18 (atom, kernel) columns, T0.1's and q0.1's
    among them, from 17 fock_column calls, one per (representative, kernel)."""
    space = load_registry()
    built = _counted(monkeypatch, symplectic, "fock_column")
    for suite in SPECTRAL:
        run_suite(suite, 7, space=space)
    assert len(built) == len(space._columns) == 17 and len(space._filled) == 18
    assert {(space.rep[b], k) for b, k in space._filled} == space._columns
    # a column is kept only for an atom of its function not yet filled
    assert set(space._kept) == {(a, k) for r, k in space._columns for a in range(len(space.atoms))
                                if space.rep[a] == r and (a, k) not in space._filled}


def _unshared(text: str) -> str:
    """text with every function that a pair line reads again declared again,
    under a fresh name, just before that line."""
    specs, seen, out = {}, set(), []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["fn"]:
            specs[tokens[1]] = tokens[2:]
        elif tokens[:1] == ["pair"]:
            refs = []
            for token in tokens[2:]:
                key, ref = token.split("=")
                if ref in seen:
                    fresh = f"{ref}_{len(out)}"
                    out.append(" ".join(["fn", fresh, *specs[ref]]))
                    ref = fresh
                elif ref != "0":
                    seen.add(ref)
                refs.append(f"{key}={ref}")
            line = " ".join(["pair", tokens[1], *refs])
        out.append(line)
    return "\n".join(out)


def _tables(space: Space) -> dict:
    """Every table the Space computes per function, as bytes, after both
    norms of every generator's tangent along T are read."""
    T = space.generator("T")
    norms = [getattr(space, norm)(space.tangent(space.generator(name), T))
             for name in space.generator_names() for norm in ("fock_norm_sq", "mover_norm_sq")]
    slot0 = [a for a, atom in enumerate(space.atoms) if atom.slot == 0]
    arrays = {
        "gram": list(space._gram.values()),
        "sigma": space._sigma_rows,
        "antiderivatives": [space.atom_antiderivative(a) for a in slot0],
        "fock": space._fock,
        "movers": space._movers,
        "norms": norms,
        "split": split_table(space),
    }
    return {"gram keys": list(space._gram), "filled": space._filled,
            **{name: np.asarray(x, dtype=float).tobytes() for name, x in arrays.items()}}


def test_shared_functions_give_the_tables_of_unshared_copies():
    text = SHARED.read_text()
    shared, copy = parse_registry(text), parse_registry(_unshared(text))
    n = len(shared.atoms)
    assert [a.name for a in copy.atoms] == [a.name for a in shared.atoms]
    assert copy.rep == tuple(range(n))
    names = [atom.name for atom in shared.atoms]
    assert {names[a]: names[r] for a, r in enumerate(shared.rep) if r != a} == {
        "q0.1": "T0.1", "q3.1": "T3.1", "s0.0": "aC.0", "s1.0": "c0.0", "s2.1": "s0.1"}
    assert _tables(shared) == _tables(copy)
    assert len(shared._columns) < len(copy._columns) and len(shared._antideriv) < len(copy._antideriv)
