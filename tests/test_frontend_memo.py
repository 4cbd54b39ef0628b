"""Soundness of the frontend's memos: module texts parsed once, ROM tables
built once per (case statement, parameter values)."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnsupportedFeatureError, VerilogSyntaxError
from repro.rtl import elaborate_source, exprs
from repro.verilog import parser
from repro.verilog.lexer import Lexer, endmodule_offsets
from repro.verilog.parser import Parser, parse_source

ROM_MODULE = """module rom #(parameter K = 1) (input [1:0] i, output reg [3:0] o);
  always @(*) begin
    case (i)
      2'd0: o = K;
      2'd1: o = K + 1;
      2'd2: o = K * 2;
      default: o = 4'd0;
    endcase
  end
endmodule
"""


def _top(name, *params):
    ports = ", ".join(f"output [3:0] y{index}" for index in range(len(params)))
    instances = "".join(
        f"  rom #({param}) r{index} (.i(i), .o(y{index}));\n"
        for index, param in enumerate(params)
    )
    return f"module {name}(input [1:0] i, {ports});\n{instances}endmodule\n"


def _table(module, signal):
    driver = module.comb[signal]
    assert isinstance(driver, exprs.Lut)
    return driver.table


class TestRomTables:
    def test_parameter_values_give_distinct_tables_in_one_design(self):
        module = elaborate_source(ROM_MODULE + _top("top", 1, 3, 1), "top")
        assert _table(module, "r0.o") == (1, 2, 2, 0)
        assert _table(module, "r1.o") == (3, 4, 6, 0)
        # Equal parameter values share one table.
        assert _table(module, "r2.o") is _table(module, "r0.o")

    def test_parameter_values_give_distinct_tables_across_designs(self):
        first_source = ROM_MODULE + _top("top_a", 1)
        second_source = ROM_MODULE + _top("top_b", 3)
        first = elaborate_source(first_source, "top_a")
        second = elaborate_source(second_source, "top_b")
        # The rom module text was parsed once and its AST is shared ...
        rom_a = parse_source(first_source).module_map()["rom"]
        assert parse_source(second_source).module_map()["rom"] is rom_a
        # ... but each design evaluates the table under its own parameters.
        assert _table(first, "r0.o") == (1, 2, 2, 0)
        assert _table(second, "r0.o") == (3, 4, 6, 0)


class TestModuleCuts:
    SOURCE = (
        "module m(input a, output y);\n"
        "  // endmodule\n"
        "  /* endmodule */\n"
        "  `define X endmodule\n"
        "  wire x$endmodule;\n"
        "  wire endmodule_x;\n"
        "  assign x$endmodule = a;\n"
        "  assign endmodule_x = x$endmodule;\n"
        "  assign y = endmodule_x;\n"
        "endmodule\n"
    )

    def test_only_the_endmodule_keyword_cuts(self):
        assert endmodule_offsets(self.SOURCE) == [len(self.SOURCE) - 1]

    def test_endmodule_in_a_string_does_not_cut(self):
        assert endmodule_offsets('"endmodule" endmodule') == [len('"endmodule" endmodule')]

    def test_memoized_parse_equals_a_whole_file_parse(self):
        source = self.SOURCE + ROM_MODULE + _top("top", 1)
        whole = Parser(Lexer(source).tokenize()).parse()
        assert parse_source(source) == whole
        assert [module.name for module in whole.modules] == ["m", "rom", "top"]


class TestErrorPositions:
    def test_syntax_error_in_second_module_keeps_file_position(self):
        source = (
            "// two modules\n"
            "module a(input x, output y);\n"
            "  assign y = x;\n"
            "endmodule\n"
            "\n"
            "module b(input x, output y);\n"
            "  wire w;\n"
            "  assign w = x +;\n"
            "  assign y = w;\n"
            "endmodule\n"
        )
        for _ in range(2):  # errors are never memoized
            with pytest.raises(VerilogSyntaxError) as error:
                parse_source(source)
            assert (error.value.line, error.value.column) == (8, 17)

    def test_lexical_error_in_a_later_module_wins(self):
        # The whole file is tokenized before parsing, so the lexical error
        # in module b is reported, not the parse error in module a.
        source = (
            "module a(input x, output y);\n"
            "  assign y = ;\n"
            "endmodule\n"
            "module b(input x, output y);\n"
            "  assign y = x £ x;\n"
            "endmodule\n"
        )
        with pytest.raises(VerilogSyntaxError, match="unexpected character") as error:
            parse_source(source)
        assert (error.value.line, error.value.column) == (5, 16)

    def test_missing_endmodule_reports_end_of_file(self):
        source = (
            "module a(input x, output y);\n"
            "  assign y = x;\n"
            "endmodule\n"
            "module b(input x, output y);\n"
            "  assign y = x;\n"
        )
        with pytest.raises(VerilogSyntaxError, match="end of file") as error:
            parse_source(source)
        assert (error.value.line, error.value.column) == (6, 1)


# Fragments whose concatenations exercise the cuts: whole modules, trivia
# that mentions endmodule, and tokens that are lexical or parse errors.
_FRAGMENTS = [
    "module a(input x, output y);\n  assign y = x;\nendmodule\n",
    "module b(input x, output y); wire w; assign w = ~x; assign y = w; endmodule",
    "module c(input x, output y); initial y = x; endmodule",
    "// endmodule\n",
    "/* endmodule\n */",
    "`define E endmodule\n",
    '"endmodule"',
    "x$endmodule",
    "endmodule",
    "module",
    "assign",
    ";",
    "8'hFF",
    "£",
    "/*",
    '"',
    "\n",
    " ",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except (VerilogSyntaxError, UnsupportedFeatureError) as error:
        return type(error).__name__, str(error)


class TestMemoizedParseMatchesWholeFileParse:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=8))
    def test_same_modules_or_same_error(self, fragments):
        # The memo is process-wide, so later examples hit pieces that earlier
        # ones stored at other offsets of other files.
        text = "".join(fragments)
        whole = _outcome(lambda source: Parser(Lexer(source).tokenize()).parse(), text)
        assert _outcome(parse_source, text) == whole


class TestMemoBound:
    def test_memo_stays_within_its_bound(self):
        for index in range(parser.MODULE_MEMO_SIZE + 10):
            parse_source(f"module bound_{index}(input a, output y); assign y = a; endmodule")
        assert len(parser._MODULE_MEMO) <= parser.MODULE_MEMO_SIZE

    def test_least_recently_used_text_is_evicted(self):
        memo = parser._ModuleMemo(2)
        memo.put("a", ())
        memo.put("b", ())
        assert memo.get("a") == ()
        memo.put("c", ())
        assert len(memo) == 2
        assert memo.get("b") is None
        assert memo.get("a") == () and memo.get("c") == ()

    def test_concurrent_use_keeps_entries_and_bound(self):
        # repro serve parses on worker threads: more threads than cores hammer
        # one small memo with overlapping keys while the interpreter switches
        # threads as often as it can.
        memo = parser._ModuleMemo(8)
        errors = []

        def hammer(seed):
            try:
                for step in range(3000):
                    key = f"text-{(seed * 7 + step) % 24}"
                    found = memo.get(key)
                    if found is not None and found != (key,):
                        errors.append(f"{key} -> {found}")
                    memo.put(key, (key,))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 8
