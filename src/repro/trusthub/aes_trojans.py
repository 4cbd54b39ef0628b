"""Trojan-infested variants of the pipelined AES-128 core (AES-T100 .. T2800).

Every benchmark of the paper's Table I is regenerated as a wrapper module
around the Trojan-free core of :mod:`repro.trusthub.aes_core`, combining the
trigger class and payload class the table reports:

Triggers
    ``plaintext seq.``   — a small FSM that advances when the plaintext input
    matches a predefined sequence of values (the 4-state FSM of Fig. 6).

    ``# encryptions``    — a counter of encryption requests.  The pipelined
    core accepts one block per cycle, so the counter increments whenever a new
    plaintext (different from the previous cycle) is presented.

    ``# clock cycles``   — a free-running counter that simply counts cycles
    from power-on / reset and never observes the inputs.

    ``# values``         — a counter of occurrences of a specific data value
    observed ``K`` pipeline stages deep (modelled by a K-stage delay line on a
    plaintext byte), mirroring the Trust-Hub Trojans whose trigger taps deep
    internal signals.

Payloads
    ``PSC``  — a code-spread shift register toggled with key bits (power side
    channel), ``RF`` — key bits serialised onto an otherwise unused output pin
    (``antena``), ``LC`` — a wide register bank loaded with key bits (leakage
    current), ``DoS`` — battery-draining toggle logic, ``bit flip`` — XOR on
    the ciphertext output.  Each payload is expressed through its RTL
    manifestation, exactly as Sec. IV-C argues every payload with security
    impact must be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import DesignError
from repro.trusthub.aes_core import aes_library_verilog, aes_top_verilog


@dataclass(frozen=True)
class TriggerSpec:
    """Trigger description for one benchmark."""

    kind: str  # "sequence", "encryptions", "cycles", "values"
    sequence: Tuple[int, ...] = ()
    threshold: int = 0
    counter_width: int = 8
    tap_depth: int = 0  # for "values": pipeline depth of the observed signal


@dataclass(frozen=True)
class PayloadSpec:
    """Payload description for one benchmark."""

    kind: str  # "psc", "rf", "lc", "dos", "bitflip"
    width: int = 64
    flip_mask: int = 1
    input_coupled: bool = True  # False => the payload never touches the input cone


@dataclass(frozen=True)
class AesTrojanSpec:
    """A complete Trust-Hub-style AES benchmark definition."""

    name: str
    trigger: TriggerSpec
    payload: PayloadSpec
    payload_label: str
    trigger_label: str
    expected_detection: str
    description: str = ""


# --------------------------------------------------------------------------- #
# Verilog generation helpers
# --------------------------------------------------------------------------- #


def _sequence_trigger(trigger: TriggerSpec) -> Tuple[List[str], str]:
    """FSM advancing on a predefined plaintext sequence (Fig. 6)."""
    states = len(trigger.sequence)
    if states < 2:
        raise DesignError("a plaintext-sequence trigger needs at least two values")
    state_width = max(1, (states).bit_length())
    lines = [f"  reg [{state_width - 1}:0] tj_seq_state;"]
    for index, value in enumerate(trigger.sequence):
        lines.append(f"  wire tj_match{index} = (state == 128'h{value:032x});")
    lines.append("  always @(posedge clk) begin")
    lines.append("    case (tj_seq_state)")
    for index in range(states):
        advance = f"{state_width}'d{index + 1}"
        lines.append(f"      {state_width}'d{index}:")
        lines.append(f"        if (tj_match{index}) tj_seq_state <= {advance};")
        if index > 0:
            lines.append(f"        else if (!tj_match{index}) tj_seq_state <= tj_seq_state;")
    lines.append(f"      {state_width}'d{states}: tj_seq_state <= tj_seq_state;")
    lines.append("      default: tj_seq_state <= tj_seq_state;")
    lines.append("    endcase")
    lines.append("  end")
    lines.append(f"  wire tj_trigger = (tj_seq_state == {state_width}'d{states});")
    return lines, "tj_trigger"


def _encryption_counter_trigger(trigger: TriggerSpec) -> Tuple[List[str], str]:
    """Counter of encryption requests (new plaintext presented)."""
    width = trigger.counter_width
    lines = [
        "  reg [127:0] tj_prev_state;",
        f"  reg [{width - 1}:0] tj_enc_count;",
        "  always @(posedge clk) begin",
        "    tj_prev_state <= state;",
        "    if (state != tj_prev_state)",
        f"      tj_enc_count <= tj_enc_count + {width}'d1;",
        "  end",
        f"  wire tj_trigger = (tj_enc_count == {width}'d{trigger.threshold});",
    ]
    return lines, "tj_trigger"


def _cycle_counter_trigger(trigger: TriggerSpec) -> Tuple[List[str], str]:
    """Free-running cycle counter; never observes the IP inputs."""
    width = trigger.counter_width
    lines = [
        f"  reg [{width - 1}:0] tj_cyc_count;",
        "  always @(posedge clk) begin",
        f"    tj_cyc_count <= tj_cyc_count + {width}'d1;",
        "  end",
        f"  wire tj_trigger = (tj_cyc_count == {width}'d{trigger.threshold});",
    ]
    return lines, "tj_trigger"


def _value_counter_trigger(trigger: TriggerSpec) -> Tuple[List[str], str]:
    """Counter of occurrences of a specific value ``tap_depth`` stages deep."""
    depth = trigger.tap_depth
    if depth < 1:
        raise DesignError("value-counter triggers need a tap depth of at least 1")
    width = trigger.counter_width
    lines = [f"  reg [7:0] tj_delay_1;"]
    lines.extend(f"  reg [7:0] tj_delay_{stage};" for stage in range(2, depth + 1))
    lines.append(f"  reg [{width - 1}:0] tj_val_count;")
    lines.append("  always @(posedge clk) begin")
    lines.append("    tj_delay_1 <= state[7:0];")
    for stage in range(2, depth + 1):
        lines.append(f"    tj_delay_{stage} <= tj_delay_{stage - 1};")
    lines.append(f"    if (tj_delay_{depth} == 8'ha5)")
    lines.append(f"      tj_val_count <= tj_val_count + {width}'d1;")
    lines.append("  end")
    lines.append(f"  wire tj_trigger = (tj_val_count == {width}'d{trigger.threshold});")
    return lines, "tj_trigger"


_TRIGGER_BUILDERS = {
    "sequence": _sequence_trigger,
    "encryptions": _encryption_counter_trigger,
    "cycles": _cycle_counter_trigger,
    "values": _value_counter_trigger,
}


def _psc_payload(payload: PayloadSpec, trigger_wire: str) -> Tuple[List[str], List[str], str]:
    """Code-spread shift register toggled with key bits (power side channel)."""
    width = payload.width
    lines = [
        f"  reg [{width - 1}:0] tj_psc_shift;",
        "  always @(posedge clk) begin",
        f"    if ({trigger_wire})",
        f"      tj_psc_shift <= {{tj_psc_shift[{width - 2}:0], key[0] ^ key[64] ^ state[0]}};",
        "    else",
        f"      tj_psc_shift <= {width}'h0;",
        "  end",
        "  assign out = core_out;",
    ]
    return [], lines, "out = core_out (leak via shift-register switching activity)"


def _rf_payload(payload: PayloadSpec, trigger_wire: str) -> Tuple[List[str], List[str], str]:
    """Key bits serialised onto an unused pin, creating an RF side channel."""
    width = payload.width
    ports = ["  output antena"]
    lines = [
        f"  reg [{max(1, (width - 1).bit_length()) - 1}:0] tj_rf_index;",
        "  reg tj_antena_reg;",
        "  always @(posedge clk) begin",
        f"    if ({trigger_wire}) begin",
        "      tj_rf_index <= tj_rf_index + 1'b1;",
        "      tj_antena_reg <= key[tj_rf_index];",
        "    end else begin",
        "      tj_antena_reg <= 1'b0;",
        "    end",
        "  end",
        "  assign antena = tj_antena_reg;",
        "  assign out = core_out;",
    ]
    return ports, lines, "key bits modulated on the unused 'antena' pin"


def _lc_payload(payload: PayloadSpec, trigger_wire: str) -> Tuple[List[str], List[str], str]:
    """Wide register bank loaded with key bits (leakage-current channel)."""
    width = payload.width
    lines = [
        f"  reg [{width - 1}:0] tj_leak_cells;",
        "  always @(posedge clk) begin",
        f"    if ({trigger_wire})",
        f"      tj_leak_cells <= key[{width - 1}:0];",
        "    else",
        f"      tj_leak_cells <= {width}'h0;",
        "  end",
        "  assign out = core_out;",
    ]
    return [], lines, "key-dependent leakage-current cells"


def _dos_payload(payload: PayloadSpec, trigger_wire: str) -> Tuple[List[str], List[str], str]:
    """Battery-draining toggle bank (denial of service)."""
    width = payload.width
    if payload.input_coupled:
        lines = [
            f"  reg [{width - 1}:0] tj_dos_toggle;",
            "  always @(posedge clk) begin",
            f"    if ({trigger_wire})",
            "      tj_dos_toggle <= ~tj_dos_toggle;",
            "  end",
            "  assign out = core_out;",
        ]
    else:
        # Payload completely outside the input fanout cone (AES-T1900): the
        # toggle bank depends only on the trigger counter and itself.
        lines = [
            f"  reg [{width - 1}:0] tj_dos_toggle;",
            "  always @(posedge clk) begin",
            f"    if ({trigger_wire})",
            "      tj_dos_toggle <= ~tj_dos_toggle;",
            "  end",
            "  assign out = core_out;",
        ]
    return [], lines, "battery-draining toggle bank"


def _bitflip_payload(payload: PayloadSpec, trigger_wire: str) -> Tuple[List[str], List[str], str]:
    """Ciphertext corruption: XOR a mask onto the output once triggered."""
    lines = [
        f"  assign out = {trigger_wire} ? (core_out ^ 128'h{payload.flip_mask:032x}) : core_out;",
    ]
    return [], lines, "ciphertext bit flip"


_PAYLOAD_BUILDERS = {
    "psc": _psc_payload,
    "rf": _rf_payload,
    "lc": _lc_payload,
    "dos": _dos_payload,
    "bitflip": _bitflip_payload,
}


def trojan_top_verilog(spec: AesTrojanSpec) -> str:
    """Verilog of the Trojan-infested top level (wraps the clean core)."""
    trigger_builder = _TRIGGER_BUILDERS.get(spec.trigger.kind)
    payload_builder = _PAYLOAD_BUILDERS.get(spec.payload.kind)
    if trigger_builder is None:
        raise DesignError(f"unknown trigger kind {spec.trigger.kind!r}")
    if payload_builder is None:
        raise DesignError(f"unknown payload kind {spec.payload.kind!r}")
    trigger_lines, trigger_wire = trigger_builder(spec.trigger)
    extra_ports, payload_lines, _ = payload_builder(spec.payload, trigger_wire)

    module_name = spec.name.lower().replace("-", "_")
    port_list = [
        "  input clk",
        "  input  [127:0] state",
        "  input  [127:0] key",
        "  output [127:0] out",
    ]
    port_list.extend(extra_ports)
    lines = [f"module {module_name}("]
    lines.append(",\n".join(port_list))
    lines.append(");")
    lines.append("  wire [127:0] core_out;")
    lines.append("  aes128 u_core (.clk(clk), .state(state), .key(key), .out(core_out));")
    lines.append("  // ---- hardware trojan: trigger ----")
    lines.extend(trigger_lines)
    lines.append("  // ---- hardware trojan: payload ----")
    lines.extend(payload_lines)
    lines.append("endmodule")
    return "\n".join(lines)


def benchmark_verilog(spec: AesTrojanSpec) -> str:
    """Complete source (core library + clean core + Trojan wrapper)."""
    return "\n\n".join([aes_library_verilog(), aes_top_verilog("aes128"), trojan_top_verilog(spec)])


def top_module_name(spec: AesTrojanSpec) -> str:
    return spec.name.lower().replace("-", "_")


# --------------------------------------------------------------------------- #
# Benchmark catalogue (one entry per Table I row)
# --------------------------------------------------------------------------- #


def _seq(*values: int) -> Tuple[int, ...]:
    return tuple(values)


_SEQ_A = _seq(0x3243F6A8885A308D313198A2E0370734, 0x00112233445566778899AABBCCDDEEFF)
_SEQ_B = _seq(
    0x0123456789ABCDEF0123456789ABCDEF,
    0xFEDCBA9876543210FEDCBA9876543210,
    0x00000000000000000000000000000001,
)
_SEQ_FIG6 = _seq(  # the 4-plaintext sequence of the AES-T1400 example (Fig. 6)
    0x3243F6A8885A308D313198A2E0370734,
    0x00112233445566778899AABBCCDDEEFF,
    0x0123456789ABCDEF0123456789ABCDEF,
    0x00000000000000000000000000000000,
)


def _spec(
    name: str,
    payload_label: str,
    trigger_label: str,
    expected: str,
    trigger: TriggerSpec,
    payload: PayloadSpec,
    description: str = "",
) -> AesTrojanSpec:
    return AesTrojanSpec(
        name=name,
        trigger=trigger,
        payload=payload,
        payload_label=payload_label,
        trigger_label=trigger_label,
        expected_detection=expected,
        description=description,
    )


AES_TROJAN_SPECS: Dict[str, AesTrojanSpec] = {
    spec.name: spec
    for spec in [
        # -- first-generation benchmarks (T100 .. T900) -------------------- #
        _spec("AES-T100", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("psc", width=64),
              "CDMA code-spread power side channel leaking key bits"),
        _spec("AES-T200", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_B), PayloadSpec("psc", width=32)),
        _spec("AES-T300", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A[:2]), PayloadSpec("psc", width=128)),
        _spec("AES-T400", "RF", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_B), PayloadSpec("rf", width=128)),
        _spec("AES-T500", "DoS", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("dos", width=32)),
        _spec("AES-T600", "LC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_B), PayloadSpec("lc", width=64)),
        _spec("AES-T700", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("psc", width=48)),
        _spec("AES-T800", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_FIG6), PayloadSpec("psc", width=96)),
        _spec("AES-T900", "PSC", "# encryptions", "init property",
              TriggerSpec("encryptions", threshold=128, counter_width=8), PayloadSpec("psc", width=64)),
        # -- second-generation benchmarks (T1000 .. T2100) ------------------ #
        _spec("AES-T1000", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A[:2]), PayloadSpec("psc", width=64)),
        _spec("AES-T1100", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_B), PayloadSpec("psc", width=64)),
        _spec("AES-T1200", "PSC", "# encryptions", "init property",
              TriggerSpec("encryptions", threshold=200, counter_width=10), PayloadSpec("psc", width=64)),
        _spec("AES-T1300", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("psc", width=80)),
        _spec("AES-T1400", "PSC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_FIG6), PayloadSpec("psc", width=64),
              "the worked example of Fig. 6: 4-state FSM trigger, round-key/PSC payload"),
        _spec("AES-T1500", "PSC", "# encryptions", "init property",
              TriggerSpec("encryptions", threshold=77, counter_width=8), PayloadSpec("psc", width=64)),
        _spec("AES-T1600", "RF", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("rf", width=128)),
        _spec("AES-T1700", "RF", "# encryptions", "init property",
              TriggerSpec("encryptions", threshold=255, counter_width=8), PayloadSpec("rf", width=128)),
        _spec("AES-T1800", "DoS", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_B), PayloadSpec("dos", width=64)),
        _spec("AES-T1900", "DoS", "# encryptions", "coverage check",
              TriggerSpec("cycles", threshold=(1 << 19), counter_width=20),
              PayloadSpec("dos", width=64, input_coupled=False),
              "trigger counter and payload lie completely outside the input fanout cone"),
        _spec("AES-T2000", "LC", "plaintext seq.", "init property",
              TriggerSpec("sequence", sequence=_SEQ_A), PayloadSpec("lc", width=128)),
        _spec("AES-T2100", "LC", "# encryptions", "init property",
              TriggerSpec("encryptions", threshold=99, counter_width=8), PayloadSpec("lc", width=64)),
        # -- ciphertext-corruption benchmarks (T2500 .. T2800) -------------- #
        _spec("AES-T2500", "bit flip", "# clock cycles", "fanout property 21",
              TriggerSpec("cycles", threshold=10, counter_width=4), PayloadSpec("bitflip", flip_mask=0x1),
              "the worked example of Fig. 7: counter-triggered LSB flip of the ciphertext"),
        _spec("AES-T2600", "bit flip", "# values", "fanout property 7",
              TriggerSpec("values", tap_depth=7, threshold=255, counter_width=8),
              PayloadSpec("bitflip", flip_mask=0x1)),
        _spec("AES-T2700", "bit flip", "# clock cycles", "fanout property 21",
              TriggerSpec("cycles", threshold=(1 << 15), counter_width=16),
              PayloadSpec("bitflip", flip_mask=0x8000000000000000)),
        _spec("AES-T2800", "bit flip", "# values", "fanout property 11",
              TriggerSpec("values", tap_depth=11, threshold=100, counter_width=8),
              PayloadSpec("bitflip", flip_mask=0x3)),
    ]
}
