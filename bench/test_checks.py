"""Anti-check self-test for the benchmark's output checks.

Run from the repository root with ``python3 -m pytest bench/test_checks.py``.
"""

import pytest

import checks


def test_checks_reject_every_corruption():
    # One flipped sample byte between workers, a transfer deviation of 1e-9,
    # a negative raw count, and the other corruptions anti_check feeds in.
    assert checks.anti_check() == []


@pytest.mark.parametrize("name", ["check_same_digest", "check_workers", "check_raw_counts",
                                  "check_analytic", "check_report_files"])
def test_anti_check_notices_a_vacuous_check(monkeypatch, name):
    monkeypatch.setattr(checks, name, lambda *args: [])
    assert checks.anti_check()
