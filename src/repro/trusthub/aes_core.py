"""Generator for the pipelined AES-128 encryption core.

The core mirrors the structure of the open-source pipelined AES used by the
Trust-Hub AES-T* benchmarks: a fully unrolled data path with *two* register
stages per round (the S-box stage and the MixColumns/AddRoundKey stage) plus
registered inputs, giving 22 register stages from the plaintext input to the
ciphertext register.  One encryption can be started every clock cycle and the
result appears after a fixed latency of :data:`AES_LATENCY` cycles.

Byte ordering follows FIPS-197: byte 0 of the specification is the most
significant byte of the 128-bit ``state``/``key``/``out`` ports, so the core's
results are directly comparable with
:func:`repro.crypto.aes_ref.aes128_encrypt_block`.
"""

from __future__ import annotations

import functools

from repro.crypto.aes_ref import SBOX

#: Clock cycles from presenting ``state``/``key`` to the ciphertext appearing on ``out``.
AES_LATENCY = 23

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _byte_slice(bus: str, byte_index: int) -> str:
    """Verilog part select of byte ``byte_index`` (0 = most significant byte)."""
    msb = 127 - 8 * byte_index
    return f"{bus}[{msb}:{msb - 7}]"


def sbox_verilog() -> str:
    """The AES S-box as a combinational 256-entry case statement."""
    lines = [
        "module aes_sbox(",
        "  input  [7:0] a,",
        "  output reg [7:0] q",
        ");",
        "  always @(*) begin",
        "    case (a)",
    ]
    for value, substituted in enumerate(SBOX):
        lines.append(f"      8'h{value:02x}: q = 8'h{substituted:02x};")
    lines.append("      default: q = 8'h00;")
    lines.append("    endcase")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines)


def sub_bytes_verilog() -> str:
    """SubBytes over the full 128-bit state (16 S-box instances)."""
    lines = [
        "module aes_sub_bytes(",
        "  input  [127:0] a,",
        "  output [127:0] q",
        ");",
    ]
    for byte_index in range(16):
        lines.append(
            f"  aes_sbox u_sbox_{byte_index} (.a({_byte_slice('a', byte_index)}), "
            f".q({_byte_slice('q', byte_index)}));"
        )
    lines.append("endmodule")
    return "\n".join(lines)


def shift_rows_verilog() -> str:
    """ShiftRows as pure wiring.

    With the FIPS mapping ``state[row][column] = byte[4 * column + row]``,
    output byte ``4c + r`` takes input byte ``4 * ((c + r) % 4) + r``.
    """
    lines = [
        "module aes_shift_rows(",
        "  input  [127:0] a,",
        "  output [127:0] q",
        ");",
    ]
    for column in range(4):
        for row in range(4):
            destination = 4 * column + row
            source = 4 * ((column + row) % 4) + row
            lines.append(
                f"  assign {_byte_slice('q', destination)} = {_byte_slice('a', source)};"
            )
    lines.append("endmodule")
    return "\n".join(lines)


def mix_columns_verilog() -> str:
    """MixColumns: per-column GF(2^8) constant multiplication network."""
    lines = [
        "module aes_mix_columns(",
        "  input  [127:0] a,",
        "  output [127:0] q",
        ");",
    ]
    for column in range(4):
        names = [f"c{column}b{row}" for row in range(4)]
        for row, name in enumerate(names):
            lines.append(f"  wire [7:0] {name} = {_byte_slice('a', 4 * column + row)};")
        for row, name in enumerate(names):
            # xtime(x) = (x << 1) ^ (0x1b masked by the dropped MSB)
            lines.append(
                f"  wire [7:0] xt_{name} = {{{name}[6:0], 1'b0}} ^ (8'h1b & {{8{{{name}[7]}}}});"
            )
        combos = [
            ("xt_{0} ^ xt_{1} ^ {1} ^ {2} ^ {3}", (0, 1, 2, 3)),
            ("{0} ^ xt_{1} ^ xt_{2} ^ {2} ^ {3}", (0, 1, 2, 3)),
            ("{0} ^ {1} ^ xt_{2} ^ xt_{3} ^ {3}", (0, 1, 2, 3)),
            ("xt_{0} ^ {0} ^ {1} ^ {2} ^ xt_{3}", (0, 1, 2, 3)),
        ]
        for row, (template, order) in enumerate(combos):
            expression = template.format(*[names[i] for i in order])
            lines.append(f"  assign {_byte_slice('q', 4 * column + row)} = {expression};")
    lines.append("endmodule")
    return "\n".join(lines)


def key_expand_verilog() -> str:
    """One round of the AES-128 key schedule (combinational, 4 S-boxes)."""
    lines = [
        "module aes_key_expand #(parameter RCON = 8'h01) (",
        "  input  [127:0] k,",
        "  output [127:0] k_next",
        ");",
        "  wire [31:0] w0 = k[127:96];",
        "  wire [31:0] w1 = k[95:64];",
        "  wire [31:0] w2 = k[63:32];",
        "  wire [31:0] w3 = k[31:0];",
        "  wire [31:0] rot = {w3[23:0], w3[31:24]};",
        "  wire [31:0] sub;",
        "  aes_sbox u_s0 (.a(rot[31:24]), .q(sub[31:24]));",
        "  aes_sbox u_s1 (.a(rot[23:16]), .q(sub[23:16]));",
        "  aes_sbox u_s2 (.a(rot[15:8]),  .q(sub[15:8]));",
        "  aes_sbox u_s3 (.a(rot[7:0]),   .q(sub[7:0]));",
        "  wire [31:0] temp = sub ^ {RCON[7:0], 24'h000000};",
        "  wire [31:0] n0 = w0 ^ temp;",
        "  wire [31:0] n1 = w1 ^ n0;",
        "  wire [31:0] n2 = w2 ^ n1;",
        "  wire [31:0] n3 = w3 ^ n2;",
        "  assign k_next = {n0, n1, n2, n3};",
        "endmodule",
    ]
    return "\n".join(lines)


def round_verilog() -> str:
    """A middle AES round: two register stages (S-box stage, MixColumns stage)."""
    lines = [
        "module aes_round #(parameter RCON = 8'h01) (",
        "  input clk,",
        "  input  [127:0] s_in,",
        "  input  [127:0] k_in,",
        "  output [127:0] s_out,",
        "  output [127:0] k_out",
        ");",
        "  wire [127:0] sb_next;",
        "  wire [127:0] k_next;",
        "  reg  [127:0] sb_q;",
        "  reg  [127:0] ka_q;",
        "  reg  [127:0] s_q;",
        "  reg  [127:0] kb_q;",
        "  wire [127:0] sr;",
        "  wire [127:0] mc;",
        "  aes_sub_bytes  u_sb (.a(s_in), .q(sb_next));",
        "  aes_key_expand #(.RCON(RCON)) u_ke (.k(k_in), .k_next(k_next));",
        "  always @(posedge clk) begin",
        "    sb_q <= sb_next;",
        "    ka_q <= k_next;",
        "  end",
        "  aes_shift_rows  u_sr (.a(sb_q), .q(sr));",
        "  aes_mix_columns u_mc (.a(sr), .q(mc));",
        "  always @(posedge clk) begin",
        "    s_q  <= mc ^ ka_q;",
        "    kb_q <= ka_q;",
        "  end",
        "  assign s_out = s_q;",
        "  assign k_out = kb_q;",
        "endmodule",
    ]
    return "\n".join(lines)


def final_round_verilog() -> str:
    """The last AES round (no MixColumns), producing the ciphertext register."""
    lines = [
        "module aes_final_round #(parameter RCON = 8'h36) (",
        "  input clk,",
        "  input  [127:0] s_in,",
        "  input  [127:0] k_in,",
        "  output [127:0] s_out",
        ");",
        "  wire [127:0] sb_next;",
        "  wire [127:0] k_next;",
        "  reg  [127:0] sb_q;",
        "  reg  [127:0] ka_q;",
        "  reg  [127:0] s_q;",
        "  wire [127:0] sr;",
        "  aes_sub_bytes  u_sb (.a(s_in), .q(sb_next));",
        "  aes_key_expand #(.RCON(RCON)) u_ke (.k(k_in), .k_next(k_next));",
        "  always @(posedge clk) begin",
        "    sb_q <= sb_next;",
        "    ka_q <= k_next;",
        "  end",
        "  aes_shift_rows u_sr (.a(sb_q), .q(sr));",
        "  always @(posedge clk) begin",
        "    s_q <= sr ^ ka_q;",
        "  end",
        "  assign s_out = s_q;",
        "endmodule",
    ]
    return "\n".join(lines)


def aes_top_verilog(module_name: str = "aes128") -> str:
    """The pipelined AES-128 top level."""
    lines = [
        f"module {module_name}(",
        "  input clk,",
        "  input  [127:0] state,",
        "  input  [127:0] key,",
        "  output [127:0] out",
        ");",
        "  reg [127:0] state_r;",
        "  reg [127:0] key_r;",
        "  reg [127:0] s0;",
        "  reg [127:0] k0;",
        "  always @(posedge clk) begin",
        "    state_r <= state;",
        "    key_r   <= key;",
        "    s0      <= state_r ^ key_r;",
        "    k0      <= key_r;",
        "  end",
    ]
    for index in range(1, 10):
        lines.append(f"  wire [127:0] s{index};")
        lines.append(f"  wire [127:0] k{index};")
    for index in range(1, 10):
        lines.append(
            f"  aes_round #(.RCON(8'h{_RCON[index - 1]:02x})) u_r{index} "
            f"(.clk(clk), .s_in(s{index - 1}), .k_in(k{index - 1}), "
            f".s_out(s{index}), .k_out(k{index}));"
        )
    lines.append(
        f"  aes_final_round #(.RCON(8'h{_RCON[9]:02x})) u_rf "
        "(.clk(clk), .s_in(s9), .k_in(k9), .s_out(out));"
    )
    lines.append("endmodule")
    return "\n".join(lines)


@functools.cache
def aes_library_verilog() -> str:
    """All support modules of the AES core (everything except the top level).

    Built once per process: every AES-based design of the catalogue shares it.
    """
    return "\n\n".join(
        [
            sbox_verilog(),
            sub_bytes_verilog(),
            shift_rows_verilog(),
            mix_columns_verilog(),
            key_expand_verilog(),
            round_verilog(),
            final_round_verilog(),
        ]
    )


def aes_core_verilog(module_name: str = "aes128") -> str:
    """Complete Verilog source of the Trojan-free pipelined AES-128 core."""
    return aes_library_verilog() + "\n\n" + aes_top_verilog(module_name)
