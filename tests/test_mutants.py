"""Every check must be shown to fail: the mutant gate of six suites.

`KILLS` maps each check of the gated suites to the mutants that must make it
fail.  A mutant replaces one live function, wherever the suites read it,
with a plausible wrong version.  At seed 7, running only the check's own
suite, each listed check must report `fail` or `error` under each of its
mutants, while the unmutated run passes it.

The sigma mutants replace `Space.sigma` only.  The one-term fast paths of
`weyl_mul` read their phase through `Space.sigma`, so the axiom checks
failing under them also pins that those paths still go through sigma.  The
product-axiom checks hold for any bilinear antisymmetric sigma, so sigma x 2
fails only the checks that compare sigma with something outside the Weyl
product: the staged product and the psi-T splitting.

`trace-property` reads the products through `weyl.graded_mul`, so a graded
filter that keeps a pair whose charges do not cancel must fail it, and so
must charges whose mean limit reads 0 (the central coordinate lost).  The
nets suite reads each generator's localization from a per-Space memo; a memo
that gives every generator one entry must fail the checks that localize.

`trace-property` has no phase row: on the charge plane the sector trace is
nonzero only on the zero key, so only pairs w = -v contribute, and sigma(v, -v)
= 0.  tr(AB) = tr(BA) then holds for any bilinear antisymmetric phase.

`fock-norm-mover-identity` compares the slot-0 Fock form with the slot-1 form
of the movers, so it sees a kernel scaled in one slot only; a common scale of
both kernels cancels in it.

`product-state-coincidence` compares field_f with product_p, and both read
one `Space.fock_factor` with the same phase on the charge-free keys, so no
Fock or phase mutant moves it; a product_p that skips `split_off_center`
leaves its key off the Fock domain, and a `State.value` that skips the charge
delta reads both keys on charged vectors, where they differ.

A round trip whose every sample is NaN must not read as a pass: max() drops
a NaN, so `largest` refuses it, and the record is a `NonFiniteDefect` error.
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from weylnet import chiral, funcspace, gns, nets, states, suites, symplectic, weyl
from weylnet.funcspace import localization
from weylnet.gns import GnsVector
from weylnet.registry import load_registry
from weylnet.suites import CHECK_BY_NAME, CHECKS, run_suite
from weylnet.symplectic import Charges, Space
from weylnet.weyl import WeylElement, _twisted

GATED = ("weyl-axioms", "psi-T", "states-positivity", "chiral", "gns", "nets")
SEED = 7

SIGMA = Space.sigma
PSI_T = Space.psi_T
CHARGES = Space.charges
MOVER = Space.mover
DALEMBERT = chiral.dalembert
DERIVATIVE = chiral.derivative
FOCK_KERNEL = funcspace._fock_kernel
KINK_SPECTRAL = funcspace.kink_spectral
SIMPSON_VALUE = symplectic._simpson_value


def _sigma_shifted(self, v, w):
    return SIGMA(self, v, w) + 0.01


def _sigma_squared(self, v, w):
    s = SIGMA(self, v, w)
    return s + 0.01 * s * s


def _sigma_doubled(self, v, w):
    return 2.0 * SIGMA(self, v, w)


def _mul_plus_phase(space, A, B):
    return WeylElement([(v + w, a * b * cmath.exp(0.5j * space.sigma(v, w)))
                        for v, a in A.terms() for w, b in B.terms()])


def _psi_t_swapped(self, v, T):
    image = PSI_T(self, v, T)
    return replace(image, m_part=image.m_part[::-1])


def _elementary_all_halved(c, n, v):
    """pi(W(c, n)) with the phase e^{i n (c + c')/2}: c' lost its factor 2."""
    c, n = Fraction(c), float(n)
    return GnsVector((c + cp, a * cmath.exp(0.5j * n * (float(c) + float(cp)))) for cp, a in v.amps())


def _elementary_unhalved(c, n, v):
    """pi(W(c, n)) with the phase e^{i n (c + c')}: c lost its 1/2."""
    c, n = Fraction(c), float(n)
    return GnsVector((c + cp, a * cmath.exp(1j * n * (float(c) + float(cp)))) for cp, a in v.amps())


def _phi_n_shifted(v):
    return GnsVector((c, (float(c) + 1e-3) * a) for c, a in v.amps())


def _inner_continuous(u, v):
    """<u|v> as if charges closer than 1e-5 were one: a regular representation."""
    return sum(x.conjugate() * a for c, a in v.amps() for d, x in u.amps() if abs(c - d) < 1e-5)


def _graded_every_pair(space, A, B, ga, gb):
    return WeylElement([_twisted(space, v, a, w, b) for v, a in A.terms() for w, b in B.terms()])


def _charges_mean_limit_zero(self, v):
    """The same F_c and F_q, with the mean limit (plus + minus)/2 read as 0."""
    den, c, plus, minus = CHARGES(self, v)
    return Charges(2 * den, 2 * c, plus - minus, minus - plus)


def _localization_one_entry(self, v):
    """Every vector reads the memo entry of the first vector read."""
    return self._localizations.setdefault(None, localization(*self.assemble(v)))


def _sector_phase_flipped(space, rho, A):
    return WeylElement((G, a * cmath.exp(-1j * space.sigma(rho.F, G))) for G, a in A.terms())


def _gauge_invariant_full(space, F, subgroup):
    """Every subgroup treated as G_full: both charges must vanish."""
    return space.in_space(F, "Vb")


def _dalembert_charges_swapped(space, v):
    pair = DALEMBERT(space, v)
    return replace(pair, c_plus=pair.c_minus, c_minus=pair.c_plus)


def _atom_antiderivative_scaled(self, a):
    """Space.mover with each slot-0 atom's antiderivative 0.1% too large."""
    u = MOVER(self, a)
    return 1.001 * u if self.atoms[a].slot == 0 else u


def _fock_kernel_slot0_scaled(grid, slot):
    return FOCK_KERNEL(grid, slot) * (1.001 if slot == 0 else 1.0)


def _kink_spectral_scaled(samples, charge, grid, power):
    return KINK_SPECTRAL(samples, charge, grid, power) * (1 + 1e-4)


def _simpson_value_scaled(samples, grid):
    return SIMPSON_VALUE(samples, grid) * (1 + 1e-4)


def _fock_factor_growing(self, v):
    return math.exp(0.25 * self.fock_norm_sq(v))


def _fock_factor_linear(self, v):
    return 1.0 - 0.25 * self.fock_norm_sq(v)


def _product_p_mutant(staged: bool = True, centred: bool = True):
    """states.product_p with no staging phase e^{i sigma(h,l)/2} unless
    staged, and with h's central constant kept unless centred."""
    def product_p(T, regular_substitute=False):
        def key(space, v):
            a, b, l_vec = space.charge_part(v, T)
            h_vec = v - l_vec
            phase = cmath.exp(0.5j * space.sigma(h_vec, l_vec)) if staged else 1.0
            omega_h = space.fock_factor(space.split_off_center(h_vec) if centred else h_vec)
            weight = math.exp(-(float(a) ** 2 + float(b) ** 2) / 4.0) if regular_substitute else 1.0
            return phase * omega_h * weight

        return states.State(key, delta=not regular_substitute)

    return product_p


def _value_without_delta(self, space, v):
    return self.key(space, v)


def _kink_spectral_divided_kink(samples, charge, grid, power):
    """kink_spectral as `dalembert_inverse` reads it (power 1), with F_c /
    k_step for F_c * k_step: the zero samples of k_step make every
    reconstructed f0 sample NaN or inf."""
    k_deriv, k_step = funcspace._unit_kink(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        residue = samples - float(charge) / k_step
        return float(charge) * k_deriv + funcspace._spectral(residue, grid.step, power)


def _derivative_scaled(f):
    d = DERIVATIVE(f)
    return replace(d, samples=d.samples * (1 + 1e-4))


# mutant -> (the objects that hold the function, its name, the replacement)
MUTANTS = {
    "sigma+0.01": ((Space,), "sigma", _sigma_shifted),
    "sigma+0.01sigma^2": ((Space,), "sigma", _sigma_squared),
    "sigma*2": ((Space,), "sigma", _sigma_doubled),
    # the product twisted by e^{+i sigma/2} instead of e^{-i sigma/2}
    "weyl_mul+phase": ((weyl, suites), "weyl_mul", _mul_plus_phase),
    # psi_T's second plane as (F_q, F_r) instead of (F_r, F_q)
    "psi_T-swapped-m": ((Space,), "psi_T", _psi_t_swapped),
    "apply_elementary-all-halved": ((gns, suites), "apply_elementary", _elementary_all_halved),
    "apply_elementary-unhalved": ((gns, suites), "apply_elementary", _elementary_unhalved),
    "phi_n+1e-3": ((gns, suites), "phi_n_apply", _phi_n_shifted),
    "sector_inner-continuous": ((gns,), "sector_inner", _inner_continuous),
    # the graded filter keeps a pair whose charges do not cancel
    "graded_mul-every-pair": ((weyl, gns, states), "graded_mul", _graded_every_pair),
    "charges-mean-limit-0": ((Space,), "charges", _charges_mean_limit_zero),
    "localization-memo-one-entry": ((Space,), "localization", _localization_one_entry),
    "sector_apply-flipped-phase": ((nets, suites), "sector_apply", _sector_phase_flipped),
    "gauge_invariant-as-G_full": ((nets,), "gauge_invariant", _gauge_invariant_full),
    # the vacuum factor exp(+||v||^2/4), and its first-order 1 - ||v||^2/4
    "fock_factor-growing": ((Space,), "fock_factor", _fock_factor_growing),
    "fock_factor-linear": ((Space,), "fock_factor", _fock_factor_linear),
    "product_p-unstaged": ((states,), "product_p", _product_p_mutant(staged=False)),
    "product_p-uncentred": ((states,), "product_p", _product_p_mutant(centred=False)),
    # a delta state read through its key on every vector, charged or not
    "value-without-delta": ((states.State,), "value", _value_without_delta),
    "dalembert-c_plus-c_minus-swapped": ((chiral, suites), "dalembert", _dalembert_charges_swapped),
    # every round-trip error NaN, which max(0.0, nan) read as 0.0; it also
    # errors chiral-charge-relations, which shares the mover loop
    "dalembert_inverse-divided-kink": ((chiral,), "kink_spectral", _kink_spectral_divided_kink),
    "atom_antiderivative*1.001": ((Space,), "mover", _atom_antiderivative_scaled),
    "fock_kernel-slot0*1.001": ((funcspace,), "_fock_kernel", _fock_kernel_slot0_scaled),
    # the per-atom antiderivative the Space builds once, by kink_spectral
    "charge_antiderivative*1.0001": ((symplectic,), "kink_spectral", _kink_spectral_scaled),
    # the Gram quadrature the Space runs at load
    "simpson_value*1.0001": ((symplectic,), "_simpson_value", _simpson_value_scaled),
    # the slot-1 derivative that split_table weighs
    "derivative*1.0001": ((chiral,), "derivative", _derivative_scaled),
}

# check -> the mutants under which it must fail
KILLS = {
    "product-associativity": ["sigma+0.01sigma^2"],
    "product-unitarity": ["sigma+0.01"],
    "involution-antihomomorphism": ["sigma+0.01", "sigma+0.01sigma^2"],
    "exchange-relation": ["sigma+0.01", "sigma+0.01sigma^2", "weyl_mul+phase"],
    "phase-cocycle-identity": ["sigma+0.01sigma^2"],
    "staged-product-agreement": ["sigma*2", "sigma+0.01", "weyl_mul+phase"],
    "sigma-splitting": ["sigma*2", "sigma+0.01sigma^2", "psi_T-swapped-m"],
    "charge-coordinates-regularizer-independent": ["psi_T-swapped-m"],
    "gram-min-eigenvalue": ["fock_factor-growing", "fock_factor-linear"],
    "regular-substitute-hermiticity-violation": ["product_p-unstaged"],
    "product-state-coincidence": ["product_p-uncentred", "value-without-delta"],
    "central-eigenrelation": ["apply_elementary-all-halved"],
    "charge-operator-eigenrelation": ["phi_n+1e-3"],
    "mover-roundtrip": ["dalembert-c_plus-c_minus-swapped", "atom_antiderivative*1.001",
                        "dalembert_inverse-divided-kink"],
    "chiral-charge-relations": ["dalembert-c_plus-c_minus-swapped"],
    "sigma-chiral-splitting": ["atom_antiderivative*1.001", "charge_antiderivative*1.0001",
                               "simpson_value*1.0001", "derivative*1.0001"],
    "fock-norm-mover-identity": ["fock_kernel-slot0*1.001", "atom_antiderivative*1.001"],
    "trace-property": ["graded_mul-every-pair", "charges-mean-limit-0"],
    "distinct-charge-norm-distance": ["apply_elementary-unhalved", "apply_elementary-all-halved"],
    "non-regularity-witness": ["sector_inner-continuous"],
    "locality-observable-nets": ["sigma+0.01"],
    "field-net-disjoint-phase": ["sigma+0.01"],
    "soliton-phases": ["sector_apply-flipped-phase", "localization-memo-one-entry", "sigma+0.01"],
    "gauge-fixed-point-filters": ["gauge_invariant-as-G_full"],
    "splitting-diagram": ["localization-memo-one-entry", "psi_T-swapped-m",
                          "gauge_invariant-as-G_full"],
}


def _statuses(suite: str) -> dict:
    report = run_suite(suite, SEED, space=load_registry())
    return {c["name"]: c["status"] for s in report["sections"] for c in s["checks"]}


def test_every_gated_check_has_a_mutant():
    names = [check.name for check in CHECKS if check.suite in GATED]
    assert sorted(KILLS) == sorted(names)
    for name, mutants in KILLS.items():
        assert mutants and set(mutants) <= set(MUTANTS), name


@pytest.mark.parametrize("suite", GATED)
def test_gated_checks_pass_unmutated(suite):
    assert set(_statuses(suite).values()) == {"pass"}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_listed_check_fails_under_its_mutant(mutant, monkeypatch):
    owners, name, replacement = MUTANTS[mutant]
    for owner in owners:
        monkeypatch.setattr(owner, name, replacement)
    killed = [check for check, mutants in KILLS.items() if mutant in mutants]
    assert killed
    for suite in sorted({CHECK_BY_NAME[check].suite for check in killed}):
        statuses = _statuses(suite)
        for check in killed:
            if CHECK_BY_NAME[check].suite == suite:
                assert statuses[check] in ("fail", "error"), (mutant, check, statuses[check])


def test_nan_round_trip_is_a_non_finite_defect_error(monkeypatch):
    """The NaN round trip errors both checks of the shared mover loop, by
    name, where max() read mover-roundtrip as a pass at 0.0."""
    monkeypatch.setattr(chiral, "kink_spectral", _kink_spectral_divided_kink)
    (section,) = run_suite("chiral", SEED, space=load_registry())["sections"]
    records = {c["name"]: c for c in section["checks"]}
    for name in ("mover-roundtrip", "chiral-charge-relations"):
        assert records[name]["status"] == "error", records[name]
        assert records[name]["error"] == "NonFiniteDefect"
        assert records[name]["message"].startswith("non-finite defect ")
