"""Every check must be shown to fail: the first part of a mutant gate.

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
"""

import cmath
from dataclasses import replace

import pytest

from weylnet import suites, weyl
from weylnet.registry import load_registry
from weylnet.suites import CHECK_BY_NAME, CHECKS, run_suite
from weylnet.symplectic import Space
from weylnet.weyl import WeylElement

GATED = ("weyl-axioms", "psi-T")
SEED = 7

SIGMA = Space.sigma
PSI_T = Space.psi_T


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


# mutant -> (the objects that hold the function, its name, the replacement)
MUTANTS = {
    "sigma+0.01": ((Space,), "sigma", _sigma_shifted),
    "sigma+0.01sigma^2": ((Space,), "sigma", _sigma_squared),
    "sigma*2": ((Space,), "sigma", _sigma_doubled),
    # the product twisted by e^{+i sigma/2} instead of e^{-i sigma/2}
    "weyl_mul+phase": ((weyl, suites), "weyl_mul", _mul_plus_phase),
    # psi_T's second plane as (F_q, F_r) instead of (F_r, F_q)
    "psi_T-swapped-m": ((Space,), "psi_T", _psi_t_swapped),
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
