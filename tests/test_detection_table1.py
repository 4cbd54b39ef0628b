"""Integration test: reproduce the detection outcomes of the paper's Table I.

For every regenerated Trust-Hub-style benchmark the detection flow must reach
the same conclusion the paper reports: which property (or the coverage check)
exposes the Trojan, and that the Trojan-free designs verify as secure.

One batch audit of the whole catalogue, each design under its default
configuration (its traced inputs and recommended waivers), feeds most tests
here.  Besides the verdicts, every design's normalized report (witnesses,
diagnoses, class outcomes and coverage; no timing or solver telemetry) must
equal its line of the golden-report fixture
``tests/fixtures/table1_combinational.jsonl``.  A change that alters a line
on purpose regenerates the file from the repository root with::

    PYTHONPATH=src python - > tests/fixtures/table1_combinational.jsonl <<'EOF'
    import json
    from repro.api import BatchSession
    from repro.exec import normalized_report_dict
    from repro.trusthub import design_names
    for report in BatchSession(design_names()).run().reports:
        print(json.dumps(normalized_report_dict(report.to_dict()), sort_keys=True))
    EOF

and says in its change notes why the line moved.
"""

import json
from pathlib import Path

import pytest

from repro.api import BatchSession, DetectionSession
from repro.core import DetectionConfig
from repro.exec import normalized_report_dict
from repro.trusthub import design_names, load_design, load_module

FIXTURE = Path(__file__).parent / "fixtures" / "table1_combinational.jsonl"


@pytest.fixture(scope="module")
def table1_reports():
    """Every catalogued design's report from one batch audit, by design name."""
    batch = BatchSession(design_names()).run()
    return {report.design: report for report in batch.reports}


@pytest.fixture(scope="module")
def golden_lines():
    """The fixture's lines, by design name, in file order."""
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["design"]: line for line in lines}


def test_fixture_lists_every_design_in_catalogue_order(golden_lines):
    assert list(golden_lines) == design_names()


@pytest.mark.parametrize("name", design_names())
def test_normalized_report_matches_the_golden_fixture(name, table1_reports, golden_lines):
    report = normalized_report_dict(table1_reports[name].to_dict())
    assert json.dumps(report, sort_keys=True) == golden_lines[name]


@pytest.mark.parametrize("name", design_names(family="AES", with_trojan=True))
def test_aes_trojan_detected_by_expected_property(name, table1_reports):
    design = load_design(name)
    report = table1_reports[name]
    assert report.trojan_detected, f"{name}: Trojan not detected"
    assert report.detected_by == design.expected_detection, (
        f"{name}: expected {design.expected_detection}, got {report.detected_by}"
    )


def test_aes_ht_free_design_is_secure(table1_reports):
    report = table1_reports["AES-HT-FREE"]
    assert report.is_secure
    assert report.coverage is not None and report.coverage.complete
    # The paper reports no spurious counterexamples for the HT-free AES runs.
    assert report.spurious_resolved == 0


@pytest.mark.parametrize("name", design_names(family="BasicRSA", with_trojan=True))
def test_rsa_trojans_detected(name, table1_reports):
    design = load_design(name)
    report = table1_reports[name]
    assert report.trojan_detected
    assert report.detected_by == design.expected_detection


def _without_waivers(name):
    design = load_design(name)
    config = DetectionConfig(inputs=list(design.data_inputs))
    return DetectionSession(load_module(name), config=config).run()


def test_rsa_ht_free_needs_exactly_the_two_documented_waivers(table1_reports):
    design = load_design("BasicRSA-HT-FREE")
    # Without waivers the two sticky handshake flags produce counterexamples
    # (the paper's "2 spurious CEXs" on the RSA designs).
    raw = _without_waivers("BasicRSA-HT-FREE")
    assert not raw.is_secure
    causes = {cause.signal for cause in raw.diagnosis.causes}
    assert causes <= set(design.recommended_waivers)
    # With the waivers the design verifies as secure.
    assert table1_reports["BasicRSA-HT-FREE"].is_secure
    assert len(design.recommended_waivers) == 2


def test_rs232_case_study(table1_reports):
    report = table1_reports["RS232-T2400"]
    assert report.trojan_detected
    # The paper reports detection by a failed fanout property (not the init
    # property and not the coverage check).
    assert report.detected_by.startswith("fanout property")


def test_rs232_ht_free_secure_with_waivers(table1_reports):
    raw = _without_waivers("RS232-HT-FREE")
    assert not raw.is_secure  # legitimate cross-frame state -> spurious CEXs
    assert table1_reports["RS232-HT-FREE"].is_secure


def test_detection_does_not_need_golden_model_or_waiver_for_aes():
    """The AES detections run with an empty waiver list — fully golden-free."""
    assert _without_waivers("AES-T1400").detected_by == "init property"


def test_proof_effort_stays_small(table1_reports):
    """Per-property proof runtimes stay in the order reported by the paper."""
    report = table1_reports["AES-HT-FREE"]
    assert report.max_property_runtime() < 5.0
    assert report.total_runtime_seconds < 60.0
