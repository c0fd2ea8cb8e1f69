"""Output checks for the benchmark, and the anti-check that proves they bite.

Every check returns a list of failure messages (empty when the output is
correct).  None of them depends on the random stream, so they keep holding
when a sampler change draws different numbers at the same seed.  This module
does not import condclt: it judges the program's outputs from outside.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TRANSFER_TOL = 1e-10        # criterion 1: G(n,p) conditioned on edges == G(n,m)
OCTANT_TOL = 1e-12          # criterion 9: cfs agree on the closed first quadrant
POINT_DIFF = 0.2            # criterion 9: |phi_X - phi_Y| at (-0.6, 0.6)
POINT_TOL = 1e-12
CONTRAST_MIN = 0.19         # criterion 9: the cfs differ along (1, -1)
AGREE_TOL = 1e-14           # criterion 9: ... and agree along (1, 1)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_same_digest(first: str, current: str) -> list[str]:
    """The same seed run twice must give byte-identical samples."""
    if current != first:
        return [f"same seed gave a different sample digest: {current[:12]} != {first[:12]}"]
    return []


def check_workers(one_worker: bytes, two_workers: bytes) -> list[str]:
    """workers=1 and workers=2 must give byte-identical samples."""
    if one_worker != two_workers:
        return ["workers=1 and workers=2 samples differ"]
    return []


def check_raw_counts(raw: np.ndarray, reps: int, dim: int, n: int,
                     degree_cap: int) -> list[str]:
    """Raw count rows: non-negative integers, each row sums to <= n items, and
    sum_k k*N_k <= degree_cap (m balls for alloc, 2m degree units for gnm)."""
    errors = []
    if raw.size != reps * dim:
        return [f"raw count dump holds {raw.size} values, expected {reps} x {dim}"]
    raw = raw.reshape(reps, dim)
    if not np.issubdtype(raw.dtype, np.integer):
        errors.append(f"raw counts have dtype {raw.dtype}, expected integers")
    if (raw < 0).any():
        errors.append(f"{int((raw < 0).sum())} negative raw counts")
    if (raw.sum(axis=1) > n).any():
        errors.append(f"a raw count row sums to more than n = {n}")
    if (raw @ np.arange(dim) > degree_cap).any():
        errors.append(f"a raw count row has sum k*N_k above {degree_cap}")
    return errors


def check_report_files(json_bytes: bytes, csv_bytes: bytes, entries: int,
                       passed: bool) -> list[str]:
    """The written JSON report parses, carries the verdict and every entry, and
    the CSV table has one row per entry plus its header."""
    try:
        doc = json.loads(json_bytes)
    except ValueError as exc:
        return [f"JSON report does not parse: {exc}"]
    errors = []
    if doc.get("passed") is not passed:
        errors.append(f"JSON report verdict {doc.get('passed')!r} != {passed}")
    if len(doc.get("entries", ())) != entries:
        errors.append(f"JSON report has {len(doc.get('entries', ()))} entries, "
                      f"expected {entries}")
    rows = csv_bytes.decode().splitlines()
    if len(rows) != entries + 1:
        errors.append(f"CSV table has {len(rows)} lines, expected {entries + 1}")
    return errors


def check_analytic(res: dict) -> list[str]:
    """Acceptance criteria 1, 2, 7 and 9 as computed by one analytic pass."""
    errors = []
    if not res["transfer_dev"] < TRANSFER_TOL:
        errors.append(f"transfer deviation {res['transfer_dev']:.3e} >= {TRANSFER_TOL}")
    if not res["coincide"]:
        errors.append("alloc and gnm limit covariances differ")
    if not res["monotone_ok"]:
        errors.append("a monotone dominance or quantile coupling fails")
    if not res["octant_max"] < OCTANT_TOL:
        errors.append(f"cwold octant max {res['octant_max']:.3e} >= {OCTANT_TOL}")
    if not abs(res["point_diff"] - POINT_DIFF) < POINT_TOL:
        errors.append(f"cwold point difference {res['point_diff']!r} != {POINT_DIFF}")
    if not res["contrast"] >= CONTRAST_MIN:
        errors.append(f"cwold (1,-1) difference {res['contrast']:.3f} < {CONTRAST_MIN}")
    if not res["agree"] < AGREE_TOL:
        errors.append(f"cwold (1,1) difference {res['agree']:.3e} >= {AGREE_TOL}")
    return errors


GOOD_ANALYTIC = {"transfer_dev": 2e-16, "coincide": True, "monotone_ok": True,
                 "octant_max": 0.0, "point_diff": 0.2, "contrast": 0.2, "agree": 0.0}


def anti_check() -> list[str]:
    """Feed the checks corrupted results; return the corruptions they accepted.

    An empty list means every check rejects what it should, and accepts the
    matching clean input, so a pass cannot be vacuous.
    """
    accepted = []
    samples = np.arange(60, dtype=float).reshape(10, 6).tobytes()
    flipped = bytearray(samples)
    flipped[17] ^= 0x01
    if check_workers(samples, samples) or not check_workers(samples, bytes(flipped)):
        accepted.append("samples differing in one byte between workers")
    if check_same_digest(digest(samples), digest(samples)) \
            or not check_same_digest(digest(samples), digest(bytes(flipped))):
        accepted.append("a different sample digest at the same seed")
    raw = np.array([[3, 4, 2, 1], [5, 2, 2, 1]], dtype=np.int64)
    negative = raw.copy()
    negative[1, 2] = -1
    if check_raw_counts(raw, 2, 4, 10, 20) \
            or not check_raw_counts(negative, 2, 4, 10, 20):
        accepted.append("a negative raw count")
    if not check_raw_counts(raw, 2, 4, 9, 20) or not check_raw_counts(raw, 2, 4, 10, 10):
        accepted.append("a raw count row above n or above the unit total")
    if check_analytic(GOOD_ANALYTIC) \
            or not check_analytic(dict(GOOD_ANALYTIC, transfer_dev=1e-9)):
        accepted.append("a transfer deviation of 1e-9")
    if not check_analytic(dict(GOOD_ANALYTIC, point_diff=0.2 + 1e-9)):
        accepted.append("a cwold point difference off by 1e-9")
    if not check_analytic(dict(GOOD_ANALYTIC, monotone_ok=False)):
        accepted.append("a failed monotone dominance")
    report = json.dumps({"passed": False, "entries": [{}] * 3}).encode()
    table = b"h\n1\n2\n3\n"
    if check_report_files(report, table, 3, False) \
            or not check_report_files(report, table[:-2], 3, False):
        accepted.append("a CSV table missing a row")
    return accepted
