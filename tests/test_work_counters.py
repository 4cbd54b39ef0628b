"""Deterministic work counters of the detection flow.

Wall time is noisy; the work the flow does is not.  The number of AIGs
built, of ``AIG.and_`` calls and of AIG nodes a cold audit makes is the
same under every hash seed, so it can be pinned.  Each test counts by
wrapping the kernel for its own duration only (the ``aig_work`` fixture of
``conftest.py``); the hot path carries no counter.  The per-AIG LUT memo is
pinned by ``tests/test_bitblast.py::TestLut``.

A ceiling is the committed count plus the larger of 10% and 5, so an
unrelated change may add a little work but a lost optimisation fails.
A change that lowers a count commits the new one.
"""

import pytest

from repro.api import Design, DetectionSession


def _ceiling(committed):
    return max(int(committed * 1.1), committed + 5)


def test_cold_aes_trojan_audit_bit_blasts_only_its_failing_class(aig_work):
    # Every class before AES-T2600's failing one settles on the RTL.  The
    # failing class is bit-blasted once, on the flow's own engine, as the
    # canonical witness settle; bit-blasting every class and settling the
    # witness again on a second engine made 125,162 calls and 100,688 nodes.
    report = DetectionSession(Design.from_benchmark("AES-T2600")).run()
    assert report.trojan_detected
    assert aig_work["aigs"] == 1
    assert aig_work["and_calls"] <= _ceiling(6_177)
    assert aig_work["and_nodes"] == 2_134
    assert aig_work["inputs"] == 2_376


def test_cold_ht_free_aes_audit_bit_blasts_nothing(aig_work):
    # Every check of the untampered core settles on the RTL (384,240 calls
    # when each was bit-blasted).
    report = DetectionSession(Design.from_benchmark("AES-HT-FREE")).run()
    assert report.is_secure
    assert aig_work["and_calls"] == 0
    assert aig_work["inputs"] == 0


@pytest.mark.parametrize(
    "name, committed", [("AES-SEQ-T3000", 19_992), ("BasicRSA-HT-FREE", 66)]
)
def test_cold_audit_bit_blasts_only_the_assumptions_left_over(aig_work, name, committed):
    # Every fanout class of these designs proves its commitments on the
    # RTL but keeps one unmerged assumption on an output at t, and only
    # that is bit-blasted.  Bit-blasting both instances of every commitment
    # made 416,174 and 440,700 calls.
    report = DetectionSession(Design.from_benchmark(name)).run()
    assert report.is_secure
    assert aig_work["aigs"] == 1
    assert aig_work["and_calls"] <= _ceiling(committed)
