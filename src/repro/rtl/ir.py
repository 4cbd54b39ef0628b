"""Flat RTL module representation used by all analysis engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ElaborationError
from repro.rtl import exprs


@dataclass
class Register:
    """A state-holding element.

    ``next`` is the complete next-state expression (control folded into
    multiplexers); ``reset_value`` is the concrete value loaded by the
    simulator at reset and is ignored by the formal engines, which always use
    a symbolic starting state.
    """

    name: str
    width: int
    next: exprs.Expr
    reset_value: Optional[int] = None


@dataclass
class Module:
    """A flat, elaborated RTL module.

    Attributes
    ----------
    inputs / outputs:
        Port name to width.  ``clocks`` lists input names used as clock of at
        least one register; the detection flow excludes them from the set of
        data inputs by default.
    signals:
        Every named signal (ports, wires, registers) with its width.
    comb:
        Driver expressions of combinationally driven signals.
    registers:
        State-holding elements keyed by name.
    """

    name: str
    inputs: Dict[str, int] = field(default_factory=dict)
    outputs: Dict[str, int] = field(default_factory=dict)
    signals: Dict[str, int] = field(default_factory=dict)
    comb: Dict[str, exprs.Expr] = field(default_factory=dict)
    registers: Dict[str, Register] = field(default_factory=dict)
    clocks: Set[str] = field(default_factory=set)
    resets: Set[str] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def width_of(self, name: str) -> int:
        try:
            return self.signals[name]
        except KeyError as error:
            raise ElaborationError(f"unknown signal {name!r} in module {self.name!r}") from error

    def is_register(self, name: str) -> bool:
        return name in self.registers

    def is_input(self, name: str) -> bool:
        return name in self.inputs

    def data_inputs(self) -> List[str]:
        """Primary inputs excluding clock and reset pins."""
        return [name for name in self.inputs if name not in self.clocks and name not in self.resets]

    def state_and_output_signals(self) -> List[str]:
        """Registers plus primary outputs — the signal universe of Sec. IV-D."""
        names = list(self.registers)
        names.extend(name for name in self.outputs if name not in self.registers)
        return names

    def driver_of(self, name: str) -> Optional[exprs.Expr]:
        """Combinational driver of ``name`` or ``None`` for inputs/registers."""
        return self.comb.get(name)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`ElaborationError`."""
        for name, width in {**self.inputs, **self.outputs}.items():
            if self.signals.get(name) != width:
                raise ElaborationError(
                    f"port {name!r} has width {width} but signal table says {self.signals.get(name)}"
                )
        for name, expr in self.comb.items():
            if name not in self.signals:
                raise ElaborationError(f"combinational driver for undeclared signal {name!r}")
            if expr.width != self.signals[name]:
                raise ElaborationError(
                    f"driver width {expr.width} does not match declared width "
                    f"{self.signals[name]} of signal {name!r}"
                )
            if name in self.registers:
                raise ElaborationError(f"signal {name!r} driven both combinationally and by a register")
            if name in self.inputs:
                raise ElaborationError(f"input {name!r} must not have an internal driver")
        for name, register in self.registers.items():
            if name not in self.signals:
                raise ElaborationError(f"register {name!r} is not in the signal table")
            if register.width != self.signals[name]:
                raise ElaborationError(f"register {name!r} width mismatch")
            if register.next.width != register.width:
                raise ElaborationError(
                    f"next-state expression of {name!r} has width {register.next.width}, "
                    f"expected {register.width}"
                )
        for name in self.outputs:
            if name not in self.comb and name not in self.registers and name not in self.inputs:
                raise ElaborationError(f"output {name!r} has no driver")

    # ------------------------------------------------------------------ #
    # Convenience constructors used by tests and programmatic designs
    # ------------------------------------------------------------------ #

    def add_input(self, name: str, width: int) -> None:
        self.inputs[name] = width
        self.signals[name] = width

    def add_output(self, name: str, width: int) -> None:
        self.outputs[name] = width
        self.signals.setdefault(name, width)

    def add_wire(self, name: str, width: int) -> None:
        self.signals.setdefault(name, width)

    def add_comb(self, name: str, expr: exprs.Expr) -> None:
        self.signals.setdefault(name, expr.width)
        self.comb[name] = expr

    def add_register(
        self,
        name: str,
        width: int,
        next_expr: exprs.Expr,
        reset_value: Optional[int] = None,
    ) -> None:
        self.signals.setdefault(name, width)
        self.registers[name] = Register(name=name, width=width, next=next_expr, reset_value=reset_value)

    def ref(self, name: str) -> exprs.Ref:
        """Build a :class:`repro.rtl.exprs.Ref` with the declared width of ``name``."""
        return exprs.ref(name, self.width_of(name))
