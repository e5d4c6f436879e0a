"""End-to-end acceptance run: one test per criterion, driven by the harness.

The full suite is executed twice with the same seed; the criterion tests read
the check records out of the first report and the determinism criterion
compares the serialized bytes of both runs.  `CRITERIA` maps each numbered
item of the README's acceptance list to the checks that carry it.
"""

import pytest

from weylnet.suites import CHECKS, run_suite, serialize_report

SEED = 7

CRITERIA = {
    1: [
        "product-associativity",
        "product-unitarity",
        "involution-antihomomorphism",
        "exchange-relation",
    ],
    2: ["staged-product-agreement"],
    3: ["phase-cocycle-identity"],
    4: ["sigma-splitting", "charge-coordinates-regularizer-independent"],
    5: ["gram-min-eigenvalue", "regular-substitute-hermiticity-violation"],
    6: ["product-state-coincidence"],
    7: [
        "central-eigenrelation",
        "charge-operator-eigenrelation",
        "trace-property",
        "distinct-charge-norm-distance",
        "non-regularity-witness",
    ],
    8: [
        "mover-roundtrip",
        "chiral-charge-relations",
        "sigma-chiral-splitting",
        "fock-norm-mover-identity",
    ],
    9: [
        "locality-observable-nets",
        "field-net-disjoint-phase",
        "soliton-phases",
        "gauge-fixed-point-filters",
        "splitting-diagram",
    ],
}


@pytest.fixture(scope="module")
def reports():
    first = run_suite("all", SEED)
    second = run_suite("all", SEED)
    return first, second


def _checks(report):
    return {c["name"]: c for s in report["sections"] for c in s["checks"]}


def _records(report, num):
    checks = _checks(report)
    return [checks[name] for name in CRITERIA[num]]


def test_criteria_cover_every_check_once():
    listed = [name for names in CRITERIA.values() for name in names]
    assert sorted(listed) == sorted(c.name for c in CHECKS)
    assert len(set(listed)) == len(listed)


def _verdict(num, label, records, extra_ok=True):
    ok = extra_ok and all(c["status"] == "pass" for c in records)
    detail = "; ".join(f"{c['name']}={c['value']:.3g}" for c in records)
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_weyl_axioms(reports):
    records = _records(reports[0], 1)
    tol_ok = all(c["tolerance"] == 1e-12 for c in records)
    _verdict(1, "weyl axioms", records, tol_ok)


def test_criterion_02_crossed_product(reports):
    (c,) = _records(reports[0], 2)
    _verdict(2, "crossed-product law", [c], c["tolerance"] == 1e-10)


def test_criterion_03_cocycle(reports):
    (c,) = _records(reports[0], 3)
    _verdict(3, "2-cocycle identity", [c], c["tolerance"] == 1e-9)


def test_criterion_04_psi_t_decomposition(reports):
    records = _records(reports[0], 4)
    tol_ok = (
        records[0]["tolerance"] == 1e-6 and records[1]["tolerance"] == 0.0
    )
    _verdict(4, "psi_T decomposition", records, tol_ok)


def test_criterion_05_positivity(reports):
    records = _records(reports[0], 5)
    extra = (
        records[1]["mode"] == "at-least"
        and records[1]["tolerance"] == 1e-6
        and records[1]["value"] > 1e-6
    )
    _verdict(5, "positivity and delta necessity", records, extra)


def test_criterion_06_state_coincidence(reports):
    (c,) = _records(reports[0], 6)
    _verdict(6, "state coincidence", [c], c["tolerance"] == 1e-10)


def test_criterion_07_gns_sector(reports):
    checks = _checks(reports[0])
    records = _records(reports[0], 7)
    tol_ok = (
        checks["central-eigenrelation"]["tolerance"] == 1e-12
        and checks["charge-operator-eigenrelation"]["tolerance"] == 0.0
        and checks["trace-property"]["tolerance"] == 1e-12
        and checks["distinct-charge-norm-distance"]["tolerance"] == 1e-9
        and checks["non-regularity-witness"]["tolerance"] == 0.0
    )
    _verdict(7, "GNS sector", records, tol_ok)


def test_criterion_08_dalembert(reports):
    checks = _checks(reports[0])
    records = _records(reports[0], 8)
    tol_ok = (
        checks["mover-roundtrip"]["tolerance"] == 1e-8
        and checks["chiral-charge-relations"]["tolerance"] == 0.0
        and checks["sigma-chiral-splitting"]["tolerance"] == 1e-5
        and checks["fock-norm-mover-identity"]["tolerance"] == 1e-4
    )
    _verdict(8, "d'Alembert decomposition", records, tol_ok)


def test_criterion_09_nets(reports):
    checks = _checks(reports[0])
    records = _records(reports[0], 9)
    tol_ok = all(
        checks[n]["tolerance"] == 1e-6
        for n in ("locality-observable-nets", "field-net-disjoint-phase", "soliton-phases")
    ) and all(
        checks[n]["tolerance"] == 0.0
        for n in ("gauge-fixed-point-filters", "splitting-diagram")
    )
    _verdict(9, "interval nets", records, tol_ok)


def test_criterion_10_determinism(reports):
    first = serialize_report(reports[0]).encode()
    second = serialize_report(reports[1]).encode()
    ok = first == second
    print(
        f"criterion 10 [determinism]: {'PASS' if ok else 'FAIL'} "
        f"({len(first)} bytes, identical={ok})"
    )
    assert ok
