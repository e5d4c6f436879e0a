"""One atom per (slot, function), and one computation per atom.

A Space registers one atom per (slot, TestFunction object): pairs that place
one function in one slot read one atom, and every array that depends on the
function alone is computed once for it: the Gram quadratures, the
antiderivatives, the Fock columns and the split table's integrals.  The
counts below are exact on the default registry at 4096 points; the oracle
compares a registry whose pairs share functions with a copy that declares
each shared function again under a fresh name, so that there every
generator slot is an atom of its own.  Both Spaces run one `_fock_form`, so
the shared registry's Fock norms are also checked by value against the
padded per-vector sums of tests/oracles.py.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from weylnet import chiral, funcspace, symplectic
from weylnet.chiral import split_table
from weylnet.funcspace import DEFAULT_GRID
from weylnet.registry import load_registry, parse_registry
from weylnet.suites import run_suite
from weylnet.symplectic import Space

from oracles import padded_chiral_norm_sq, padded_fock_norm_sq, unshared

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
    """q0 = (0, tk0) and q3 = (0, tk3) read the slot-1 atoms of T0 and T3:
    16 atoms, one per (slot, function object)."""
    space = load_registry()
    names = [atom.name for atom in space.atoms]
    assert len(names) == len({(atom.slot, id(atom.fn)) for atom in space.atoms}) == 16
    assert "q0.1" not in names and "q3.1" not in names
    for q, T in (("q0", "T0"), ("q3", "T3")):
        assert space.generator(q) == space.slot_part(space.generator(T), 1)


def test_gram_runs_one_quadrature_per_cross_slot_atom_pair(monkeypatch, warm):
    """9 slot-0 and 7 slot-1 atoms: 63 quadratures at load, one per Gram key."""
    quads = _counted(monkeypatch, symplectic, "_simpson_value")
    space = load_registry()
    assert len(quads) == len(space._gram) == 63


def test_split_table_takes_one_dot_per_cross_slot_atom_pair(monkeypatch, warm):
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


def test_each_fock_column_is_built_once_per_atom_and_kernel(monkeypatch, warm):
    """The spectral suites build 17 (atom, kernel) columns, each from one
    fock_column call."""
    space = load_registry()
    built = _counted(monkeypatch, symplectic, "fock_column")
    for suite in SPECTRAL:
        run_suite(suite, 7, space=space)
    assert len(built) == len(space._columns) == 17


def _bytes(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _merged(shared: Space, copy: Space) -> list:
    """m[i], the atom of `shared` that holds the function of copy atom i, read
    off the generator slot that names i."""
    m = []
    for atom in copy.atoms:
        name, slot = atom.name.rsplit(".", 1)
        (a, _), = shared.slot_part(shared.generator(name), int(slot)).items()
        m.append(a)
    return m


def _read_norms(space: Space) -> None:
    """Both norms of every generator's tangent along T: fills both Fock tables."""
    T = space.generator("T")
    for name in space.generator_names():
        v = space.tangent(space.generator(name), T)
        space.fock_norm_sq(v)
        space.mover_norm_sq(v)


def test_shared_functions_give_the_tables_of_unshared_copies():
    """Every per-function entry of the copy equals, bit for bit, the entry
    of the merged atoms that hold its functions.  A Fock entry Q(a, b) is
    u_a . fock_column(u_b) for a <= b, so it is compared where the merge
    keeps the pair's order: that covers every entry of the shared tables.
    sigma on generator pairs and the norms of Va generators sum at most two
    terms per slot, so no order of the atoms can move a bit of them."""
    text = SHARED.read_text()
    shared, copy = parse_registry(text), parse_registry(unshared(text))
    m, n = _merged(shared, copy), len(copy.atoms)
    names = [atom.name for atom in copy.atoms]
    assert {names[i]: shared.atoms[a].name for i, a in enumerate(m)
            if shared.atoms[a].name != names[i]} == {
        "q0.1": "T0.1", "q3.1": "T3.1", "s0.0": "aC.0", "s1.0": "c0.0", "s2.1": "s0.1"}
    # a merged atom is named after, and holds the samples of, its first copy atom
    assert [names[m.index(a)] for a in range(len(shared.atoms))] == [x.name for x in shared.atoms]
    assert all(_bytes(copy.atoms[i].fn.samples) == _bytes(shared.atoms[a].fn.samples)
               for i, a in enumerate(m))

    for space in (shared, copy):
        _read_norms(space)
    assert {(m[b], k) for b, k in copy._columns} == shared._columns
    assert len(shared._columns) < len(copy._columns) and len(shared._antideriv) < len(copy._antideriv)

    assert {(m[i], m[j]) for i, j in copy._gram} == set(shared._gram)
    assert _bytes(list(copy._gram.values())) == _bytes([shared._gram[m[i], m[j]] for i, j in copy._gram])
    slot0 = [i for i, atom in enumerate(copy.atoms) if atom.slot == 0]
    assert all(_bytes(copy.atom_antiderivative(i)) == _bytes(shared.atom_antiderivative(m[i]))
               for i in slot0)
    mapped = np.ix_(m, m)
    for ours, theirs in ((copy._sigma_rows, shared._sigma_rows),
                         (split_table(copy), split_table(shared))):
        assert _bytes(ours) == _bytes(np.asarray(theirs)[mapped])
    # q0.1 merges into T0.1, before aC.1: (aC.1, q0.1) is read the other way round
    kept = np.array([[m[min(i, j)] == min(m[i], m[j]) for j in range(n)] for i in range(n)])
    assert not kept[names.index("aC.1"), names.index("q0.1")]
    for ours, theirs in ((copy._fock, shared._fock), (copy._movers, shared._movers)):
        assert _bytes(np.asarray(ours)[kept]) == _bytes(np.asarray(theirs)[mapped][kept])

    def per_generator(space):
        gens = [space.generator(name) for name in space.generator_names()]
        va = [g for g in gens if space.in_space(g, "Va")]
        return ([space.sigma(g, h) for g, h in itertools.product(gens, repeat=2)],
                [space.fock_norm_sq(g) for g in va], [space.mover_norm_sq(g) for g in va])

    assert [_bytes(x) for x in per_generator(copy)] == [_bytes(x) for x in per_generator(shared)]


def test_fock_norms_match_the_padded_per_vector_sums():
    """Both Fock tables of the shared registry against the per-vector sums of
    tests/oracles.py, which share no table and no transform length with
    them: `fock_norm_sq` against `padded_fock_norm_sq` of the assembled pair,
    `mover_norm_sq` against 2||theta_+||^2 + 2||theta_-||^2 of the `dalembert`
    movers, on every Va generator and every generator's nonzero tangent
    along T.  Each vector reads its Cauchy-data norm and then its mover norm
    on one Space, so a column filled for one kernel and read for the other
    shows here by value."""
    space = parse_registry(SHARED.read_text())
    T = space.generator("T")
    gens = [space.generator(name) for name in space.generator_names()]
    vectors = [g for g in gens if space.in_space(g, "Va")] + [space.tangent(g, T) for g in gens]
    vectors = [v for v in vectors if not v.is_zero()]
    assert len(vectors) == 18
    for v in vectors:
        fock = padded_fock_norm_sq(*space.assemble(v))
        pair = chiral.dalembert(space, v)
        movers = 2 * (padded_chiral_norm_sq(pair.theta_plus) + padded_chiral_norm_sq(pair.theta_minus))
        assert abs(space.fock_norm_sq(v) - fock) <= 1e-12 * fock, v
        assert abs(space.mover_norm_sq(v) - movers) <= 1e-12 * movers, v
