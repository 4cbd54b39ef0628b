"""The engine's RTL settle: checks discharged before any bit-blasting.

``IpcEngine.begin_check`` first merges the assumptions and asks whether the
rebuilt instance's side of every commitment reads only leaves merged with
instance 0's own.  If so the commitments are proven with no AIG node built
for them, and only the unmerged assumptions whose cones read another leaf
are bit-blasted, to count them as clause constraints.  The rule is sound
only if the bit-blast path, given the same check, reaches the same outcome
(holds, structurally proven or not, the same merge and clause counts); the
tests here reach that path by switching the settle off on one engine,
inside the test.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import BatchSession, Design, DetectionSession
from repro.core import DetectionConfig, DetectionReport, Verdict
from repro.core.properties import build_init_property
from repro.errors import BitblastError
from repro.exec import normalized_report_dict
from repro.exec.worker import DesignWorkContext, WorkUnit
from repro.ipc import IntervalProperty, IpcEngine
from repro.rtl import elaborate_source, exprs
from repro.rtl.ir import Module
from repro.trusthub import design_names

FIXTURE = Path(__file__).parent / "fixtures" / "table1_combinational.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"

_ARITHMETIC = (
    exprs.BinaryOp.ADD, exprs.BinaryOp.SUB, exprs.BinaryOp.MUL,
    exprs.BinaryOp.AND, exprs.BinaryOp.OR, exprs.BinaryOp.XOR,
)


def _bit_blast_only(engine):
    """Switch the RTL settle off on one engine: every check is bit-blasted."""
    engine._settle_on_rtl = lambda prop, window: None
    return engine


def _fixture_line(name):
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        if json.loads(line)["design"] == name:
            return line
    raise KeyError(name)


def _normalized_line(report):
    return json.dumps(normalized_report_dict(report.to_dict()), sort_keys=True)


# ---------------------------------------------------------------------- #
# Random modules and properties
# ---------------------------------------------------------------------- #


def _fit(expr, width):
    if expr.width > width:
        return exprs.slice_expr(expr, 0, width)
    if expr.width < width:
        return exprs.concat([exprs.const(0, width - expr.width), expr])
    return expr


def _draw_expr(draw, signals, width, depth):
    kinds = ["ref", "ref", "const"]
    if depth:
        kinds += ["arithmetic", "mux", "concat", "slice", "lut", "not"]
    kind = draw(st.sampled_from(kinds))

    def sub(sub_width):
        return _draw_expr(draw, signals, sub_width, depth - 1)

    if kind == "ref":
        name = draw(st.sampled_from(sorted(signals)))
        return _fit(exprs.ref(name, signals[name]), width)
    if kind == "const":
        return exprs.const(draw(st.integers(0, (1 << width) - 1)), width)
    if kind == "arithmetic":
        op = draw(st.sampled_from(_ARITHMETIC))
        return exprs.Binop(width=width, op=op, left=sub(width), right=sub(width))
    if kind == "mux":
        compared = draw(st.integers(1, 3))
        op = draw(st.sampled_from((exprs.BinaryOp.EQ, exprs.BinaryOp.ULT)))
        condition = exprs.Binop(width=1, op=op, left=sub(compared), right=sub(compared))
        return exprs.mux(condition, sub(width), sub(width))
    if kind == "concat":
        if width == 1:
            return sub(1)
        low = draw(st.integers(1, width - 1))
        return exprs.concat([sub(width - low), sub(low)])
    if kind == "slice":
        extra = draw(st.integers(1, 3))
        lsb = draw(st.integers(0, extra))
        return exprs.Slice(width=width, base=sub(width + extra), lsb=lsb)
    if kind == "lut":
        bits = draw(st.integers(1, 3))
        entry = st.integers(0, (1 << width) - 1)
        table = draw(st.lists(entry, min_size=1 << bits, max_size=1 << bits))
        return exprs.Lut(width=width, index=sub(bits), table=tuple(table))
    return exprs.Unop(width=width, op=exprs.UnaryOp.NOT, operand=sub(width))


@st.composite
def _checks(draw):
    """A small module of inputs, registers and wires, and a 2-safety property."""
    module = Module("random")
    widths = st.integers(1, 4)
    for name in ("a", "b")[: draw(st.integers(1, 2))]:
        module.add_input(name, draw(widths))
    registers = {f"r{index}": draw(widths) for index in range(draw(st.integers(1, 3)))}
    signals = {**module.inputs, **registers}
    for index in range(draw(st.integers(0, 3))):
        name, width = f"w{index}", draw(widths)
        module.add_comb(name, _draw_expr(draw, signals, width, 2))
        signals[name] = width
    for name, width in registers.items():
        module.add_register(name, width, _draw_expr(draw, signals, width, 2))
    module.validate()

    prop = IntervalProperty(name="random")
    leaves = (*module.inputs, *registers)
    merging = draw(st.sampled_from(("all", "all but one", "drawn")))
    if merging != "drawn":
        # Every leaf merged at t, as the flow's properties do for a class,
        # or all but one, so that assumptions reading it are left over.
        skipped = draw(st.sampled_from(leaves)) if merging == "all but one" else None
        for name in leaves:
            if name != skipped:
                prop.assume_equal(name, 0)
    names = sorted(signals)
    for name in draw(st.lists(st.sampled_from(names), max_size=4)):
        prop.assume_equal(name, draw(st.integers(0, 1)))
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        prop.prove_equal(name, draw(st.integers(0, 1)))
    # Any signal at t+1, or a register, as the flow's properties commit.
    final = draw(st.sampled_from((names, sorted(registers))))
    prop.prove_equal(draw(st.sampled_from(final)), 1)
    return module, prop


_OUTCOME = ("holds", "structurally_proven", "merged_assumptions", "clause_assumptions")


def _outcome(result):
    return {field: getattr(result, field) for field in _OUTCOME}


@settings(max_examples=600, deadline=None)
@given(_checks())
def test_whatever_the_rtl_settles_the_aig_discharges_structurally(check):
    module, prop = check
    settled = IpcEngine(module)
    planned = settled._settle_on_rtl(prop, prop.window())
    if planned is None:
        return
    merged, leftovers = planned
    result = settled.check(prop)
    assert result.holds and result.merged_assumptions == merged
    assert result.clause_assumptions <= len(leftovers)
    # Only leftover assumptions are bit-blasted, and never solved.
    assert settled.pristine == (not leftovers)
    assert settled.solver_context.solve_calls == 0
    blasted = _bit_blast_only(IpcEngine(module)).check(prop)
    assert _outcome(result) == _outcome(blasted)
    assert blasted.solver_calls == 0


def test_the_settle_agrees_with_the_aig_on_every_cold_table1_check(monkeypatch):
    # With the settle off, and every settle treated as one on a used engine
    # so that each failing class is re-settled on a new one, a cold Table I
    # audit makes the 200 checks of a flow that bit-blasts everything.  Each
    # is also asked of the settle, which must fire only where the AIG
    # proves every commitment, with one clause constraint per assumption
    # left over.
    settle = IpcEngine._settle_on_rtl
    begin = IpcEngine.begin_check
    checks = []

    def recording_begin(self, prop, deadline_s=None):
        window = prop.window()
        planned, _ = self._merge_assumptions(prop, window, lambda target, source: True)
        settled = settle(self, prop, window)
        prepared = begin(self, prop, deadline_s)
        checks.append((settled, planned, prepared))
        return prepared

    monkeypatch.setattr(IpcEngine, "_settle_on_rtl", lambda self, prop, window: None)
    monkeypatch.setattr(IpcEngine, "begin_check", recording_begin)
    monkeypatch.setattr(DesignWorkContext, "_settles_canonically", lambda self: False)
    BatchSession(design_names()).run()

    assert len(checks) == 200
    assert all(prepared.result.merged_assumptions == planned for _, planned, prepared in checks)
    fired = [(settled, prepared) for settled, _, prepared in checks if settled is not None]
    assert len(fired) == 144
    for (merged, leftovers), prepared in fired:
        result = prepared.result
        assert prepared.discharged and result.holds
        assert result.merged_assumptions == merged
        assert result.clause_assumptions == len(leftovers)
        assert result.structurally_proven == (not leftovers)
    # AES-SEQ-T3000's 21 fanout classes and BasicRSA-HT-FREE's 9 each keep
    # one assumption on an output at t that reads an unmerged leaf.
    assert sorted(len(leftovers) for (_, leftovers), _ in fired) == [0] * 114 + [1] * 30


def test_a_leaf_read_only_through_and_zero_is_left_to_the_aig():
    module = Module("masked")
    module.add_input("a", 4)
    module.add_register("s", 4, exprs.ref("s", 4))
    masked = exprs.Binop(width=4, op=exprs.BinaryOp.AND, left=exprs.ref("s", 4),
                         right=exprs.const(0, 4))
    module.add_register(
        "r", 4, exprs.Binop(width=4, op=exprs.BinaryOp.ADD, left=exprs.ref("a", 4), right=masked)
    )
    prop = IntervalProperty(name="masked")
    prop.assume_equal("a", 0)
    prop.prove_equal("r", 1)
    engine = IpcEngine(module)
    # ``s`` is not assumed equal, and the RTL does not see that ``& 0``
    # hides it; the AIG folds it away.
    assert engine._settle_on_rtl(prop, prop.window()) is None
    result = engine.check(prop)
    assert result.holds and result.structurally_proven
    assert result.merged_assumptions == 1 and not engine.pristine


def test_a_leftover_assumption_masked_by_and_zero_folds_on_the_aig():
    # ``m`` reads the unmerged ``s`` only through ``& 0``: the RTL walk
    # leaves its assumption over, and the AIG folds it to TRUE.
    module = Module("masked")
    module.add_input("a", 4)
    module.add_register("s", 4, exprs.ref("s", 4))
    masked = exprs.Binop(width=4, op=exprs.BinaryOp.AND, left=exprs.ref("s", 4),
                         right=exprs.const(0, 4))
    module.add_comb(
        "m", exprs.Binop(width=4, op=exprs.BinaryOp.ADD, left=exprs.ref("a", 4), right=masked)
    )
    module.add_register("r", 4, exprs.ref("a", 4))
    prop = IntervalProperty(name="masked")
    prop.assume_equal("a", 0)
    prop.assume_equal("m", 0)
    prop.prove_equal("r", 1)
    engine = IpcEngine(module)
    merged, leftovers = engine._settle_on_rtl(prop, prop.window())
    assert merged == 1 and [right.signal for _, right in leftovers] == ["m"]
    result = engine.check(prop)
    assert result.holds and result.structurally_proven
    assert result.merged_assumptions == 1 and result.clause_assumptions == 0
    assert _outcome(result) == _outcome(_bit_blast_only(IpcEngine(module)).check(prop))


_MODULO = """
module m(input clk, input [7:0] a, input [7:0] b, output [7:0] q);
  wire [7:0] rem;
  assign rem = a % b;
  reg [7:0] r;
  always @(posedge clk) r <= {next_state};
  assign q = r;
endmodule
"""


def test_what_the_bit_blaster_rejects_is_left_to_it():
    # An untampered modulo by a variable, in the register's next state or
    # read through a wire: equal on both instances, but the bit-blaster
    # cannot lower it, and its error must still show.
    for next_state in ("a % b", "rem"):
        module = elaborate_source(_MODULO.format(next_state=next_state), "m")
        prop = IntervalProperty(name="mod")
        prop.assume_equal("a", 0)
        prop.assume_equal("b", 0)
        prop.prove_equal("r", 1)
        engine = IpcEngine(module)
        assert engine._settle_on_rtl(prop, prop.window()) is None, next_state
        with pytest.raises(BitblastError, match="modulo"):
            engine.check(prop)


def test_a_leftover_assumption_the_bit_blaster_rejects_still_raises():
    # Every commitment settles on the RTL, but the assumption on ``rem``
    # is left over (its leaves are merged, the modulo is not blastable),
    # and bit-blasting it must raise as it does on the bit-blast path.
    module = elaborate_source(_MODULO.format(next_state="a"), "m")
    prop = IntervalProperty(name="mod")
    prop.assume_equal("a", 0)
    prop.assume_equal("b", 0)
    prop.assume_equal("rem", 0)
    prop.prove_equal("r", 1)
    engine = IpcEngine(module)
    merged, leftovers = engine._settle_on_rtl(prop, prop.window())
    assert merged == 2 and [right.signal for _, right in leftovers] == ["rem"]
    with pytest.raises(BitblastError, match="modulo"):
        engine.check(prop)
    with pytest.raises(BitblastError, match="modulo"):
        _bit_blast_only(IpcEngine(module)).check(prop)


def test_a_trojans_failing_commitment_is_never_settled_on_the_rtl(trojaned_module):
    context = DesignWorkContext(WorkUnit("pipe", "pipe", trojaned_module, DetectionConfig()))
    failing = 0
    for k in range(context.analysis.placement_depth):
        prop = context.build_property(k)
        for commitment in prop.commitments:
            single = IntervalProperty(
                name=prop.name, assumptions=list(prop.assumptions), commitments=[commitment]
            )
            if IpcEngine(trojaned_module).check(single).holds:
                continue
            failing += 1
            assert IpcEngine(trojaned_module)._settle_on_rtl(single, single.window()) is None
    assert failing


def test_a_deep_wire_chain_settles_without_recursion():
    # Each stage would cost the bit-blaster several Python frames; the
    # settle walks the chain with an explicit stack.  A low limit makes the
    # test pin "no recursion in the size of the input".
    probe = textwrap.dedent(
        """
        import sys
        from repro.api import Design, DetectionSession

        lines = ["module chain(input clk, input [7:0] din, output [7:0] dout);",
                 "  wire [7:0] w0;", "  assign w0 = din;"]
        for i in range(1, 2000):
            lines += [f"  wire [7:0] w{i};", f"  assign w{i} = w{i - 1} + 8'd1;"]
        lines += ["  reg [7:0] r;", "  always @(posedge clk) r <= w1999;",
                  "  assign dout = r;", "endmodule"]
        sys.setrecursionlimit(200)
        design = Design.from_source("\\n".join(lines), "chain")
        print(DetectionSession(design).run().verdict.value)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "secure"


# ---------------------------------------------------------------------- #
# One witness settle per failing class
# ---------------------------------------------------------------------- #


def test_a_serial_audit_settles_its_failing_class_once(aig_work):
    # AES-T100 fails its init property, the first class: the flow's engine
    # has built nothing yet, so its settle is the canonical witness settle
    # and no second engine is built.  (AES-T2600, which fails class 7 after
    # six classes settled on the RTL, is pinned in test_work_counters.py.)
    report = DetectionSession(Design.from_benchmark("AES-T100")).run()
    assert report.trojan_detected
    assert aig_work["aigs"] == 1
    assert _normalized_line(report) == _fixture_line("AES-T100")


def test_a_context_whose_engine_was_used_still_re_settles(aig_work):
    # AES-T100 fails class 0, its init property.  Probe that property on a
    # work context's own engine first: the settle then runs on a used
    # engine and must re-settle canonically, on a second AIG, to report
    # the fixture's outcome and witness.
    design = Design.from_benchmark("AES-T100")
    config = design.default_config()
    unit = WorkUnit(
        key=design.name,
        name=design.name,
        module=design.module,
        config=config,
        analysis=design.analysis(config.inputs),
        graph=design.graph,
    )
    context = DesignWorkContext(unit)
    probe = build_init_property(design.module, unit.analysis, config)
    assert not context.engine.check(probe).holds
    assert not context.engine.pristine
    outcome = context.settle_class(0).outcome
    assert aig_work["aigs"] == 2
    report = DetectionReport(
        design=design.name,
        verdict=Verdict.TROJAN_SUSPECTED,
        outcomes=[outcome],
        counterexample=outcome.result.cex,
        diagnosis=outcome.diagnosis,
    )
    settled = normalized_report_dict(report.to_dict())
    fixture = json.loads(_fixture_line("AES-T100"))
    for key in ("outcomes", "counterexample", "diagnosis"):
        assert settled[key] == fixture[key]
