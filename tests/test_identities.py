from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combtiles.identities as identities
from combtiles.identities import (
    PROFILES,
    CheckReport,
    check_names,
    multinomial_check,
    reports_to_json,
    run_check,
    run_suite,
)

EXPECTED_CHECKS = [
    "ch_eq_chb",
    "adiag_sum",
    "col0",
    "diag",
    "col1",
    "zeros",
    "vert_boundary",
    "ray_boundary",
    "one_square_block",
    "two_square_block",
    "composition",
    "pascal_region",
    "subset_recurrence",
    "rr_exact",
    "sums_exact",
    "gf_42",
    "multinom",
    "sumcoeff",
    "poly_coeff",
    "tpoly",
    "s_corollaries",
]


def test_registry_names_are_stable():
    assert check_names() == EXPECTED_CHECKS


def test_profiles():
    assert set(PROFILES) == {"quick", "full"}
    assert PROFILES["quick"].max_n < PROFILES["full"].max_n


def test_quick_suite_passes():
    reports = run_suite("quick")
    assert [r.check_name for r in reports] == EXPECTED_CHECKS
    for r in reports:
        assert r.passed, (r.check_name, r.failures[:3])
        assert r.cases_run > 0


def test_run_check_validation():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("no_such_check")
    with pytest.raises(ValueError, match="unknown profile"):
        run_check("col0", "huge")


def test_report_semantics():
    empty = CheckReport("x", "g", 0)
    assert not empty.passed  # a check that ran nothing proves nothing
    failed = CheckReport("x", "g", 3, (("m=2", "1", "2"),))
    assert not failed.passed
    ok = CheckReport("x", "g", 3)
    assert ok.passed


def test_reports_serialize_to_json():
    reports = [run_check("col0"), run_check("gf_42")]
    payload = json.loads(reports_to_json(reports))
    assert [p["check_name"] for p in payload] == ["col0", "gf_42"]
    assert all(p["passed"] for p in payload)
    assert all(isinstance(p["cases_run"], int) for p in payload)


def test_pascal_region_documents_boundary():
    report = run_check("pascal_region")
    assert report.passed
    assert "boundary" in report.notes


def test_zeros_check_catches_an_off_by_one(monkeypatch):
    # sabotage the capacity formula; the zeros check must produce a
    # concrete counterexample rather than pass silently
    true_max_combs = identities.max_combs

    def off_by_one(spec, j, r):
        return true_max_combs(spec, j, r) + 1

    monkeypatch.setattr(identities, "max_combs", off_by_one)
    report = run_check("zeros")
    assert not report.passed
    assert report.failures
    params, expected, actual = report.failures[0]
    assert params and expected != actual


@pytest.mark.parametrize(
    "name",
    ["vert_boundary", "ray_boundary", "one_square_block", "two_square_block", "composition"],
)
def test_entry_checks_catch_an_off_by_one_binomial(monkeypatch, name):
    # sabotage the binomial the point lists are stated with; each entry check
    # must report a point of some family rather than pass silently
    true_binom = identities._binom
    monkeypatch.setattr(identities, "_binom", lambda a, b: true_binom(a, b) + 1)
    report = run_check(name)
    assert not report.passed
    params, expected, actual = report.failures[0]
    assert params.startswith("m=") and expected != actual


def test_rr_exact_catches_a_wrong_coefficient(monkeypatch):
    broken = dict(identities._KNOWN_TILE_SUM_RELATIONS)
    deltas, shifts = broken[(2, 3)]
    broken[(2, 3)] = (deltas, {**shifts, 1: 3})
    monkeypatch.setattr(identities, "_KNOWN_TILE_SUM_RELATIONS", broken)
    report = run_check("sums_exact")
    assert not report.passed


def test_multinomial_check_examples():
    assert multinomial_check((1, 1, 1))
    assert multinomial_check((2, 1, 3, 2))
    with pytest.raises(ValueError):
        multinomial_check((2, 1))
    with pytest.raises(ValueError):
        multinomial_check((2, 0, 1))
    # entries are ints: no float, bool or string is truncated into one
    for j_values in [(1.5, 1, 1), (True, 1, 1), ("2", 1, 3, 2)]:
        with pytest.raises(ValueError, match="positive integers"):
            multinomial_check(j_values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=5))
def test_multinomial_check_holds_generally(j_values):
    assert multinomial_check(tuple(j_values))
