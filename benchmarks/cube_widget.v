// SAT-hard fixture: a 5-stage register pipeline feeding a
// multiplier-commutativity identity.
//
// The class proving `m` assumes only shallow registers equal, so the
// deep pipeline tail `r5` is a *free* leaf in the cone of m@t+1.  The
// obligation (r5*e)^(e*r5) == 0 cancels only functionally — structural
// hashing cannot fold the two operand orders at 6-bit width — so the
// SAT search needs thousands of conflicts (5554 over the whole audit).
//
// Audited with the default combinational mode this design is secure.
module cube_widget(
  input clk,
  input [5:0] a,
  input [5:0] b,
  output [11:0] o
);
  reg [5:0] r1;
  reg [5:0] r2;
  reg [5:0] r3;
  reg [5:0] r4;
  reg [5:0] r5;
  reg [5:0] e;
  reg [11:0] m;
  always @(posedge clk) begin
    r1 <= a;
    r2 <= r1;
    r3 <= r2;
    r4 <= r3;
    r5 <= r4;
    e <= b;
    m <= (r5 * e) ^ (e * r5);
  end
  assign o = m;
endmodule
