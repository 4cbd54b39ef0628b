"""Deterministic work counters of the detection flow.

Wall time is noisy; the work the flow does is not.  The number of
``AIG.and_`` calls and of AIG nodes a cold audit makes is the same under
every hash seed, so it can be pinned.  Each test counts by wrapping the
kernel for its own duration only (the ``aig_work`` fixture of
``conftest.py``); the hot path carries no counter.

A ceiling is the committed count plus the larger of 10% and 5, so an
unrelated change may add a little work but a lost optimisation fails.
A change that lowers a count commits the new one.
"""

from repro.api import Design, DetectionSession


def _ceiling(committed):
    return max(int(committed * 1.1), committed + 5)


def test_cold_aes_audit_lowers_each_sbox_once(aig_work):
    # Without the per-AIG LUT memo, instance 1 re-lowers every S-box that
    # assumption merging put over instance 0's literals: 217,202 calls.
    report = DetectionSession(Design.from_benchmark("AES-T2600")).run()
    assert report.trojan_detected
    assert aig_work["and_calls"] <= _ceiling(125_162)
    # The memo skips calls, never nodes: the graph is the one a full
    # rebuild makes.
    assert aig_work["and_nodes"] == 100_688
    assert aig_work["inputs"] == 4_752
