"""Interval property representation.

A property is a pair *(assume, prove)* of constraint lists.  Constraints are
equalities between *terms*; a term names a signal of one design instance at
one time offset inside the property window.  This is exactly the shape of the
properties in Figs. 3-5 of the paper:

``init_property``::

    assume:  at t:   inputs(instance 1)      == inputs(instance 2)
    prove:   at t+1: fanouts_CC1(instance 1) == fanouts_CC1(instance 2)

Terms may also be compared against constants, which is occasionally useful
for user-supplied waiver assumptions (Sec. V-B).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import PropertyError


@dataclass(frozen=True)
class Term:
    """A signal of one instance at a time offset within the property window."""

    signal: str
    time: int = 0
    instance: int = 0

    def __str__(self) -> str:
        return f"inst{self.instance + 1}.{self.signal}@t+{self.time}" if self.time else (
            f"inst{self.instance + 1}.{self.signal}@t"
        )


@dataclass(frozen=True)
class Equality:
    """``left == right`` where ``right`` is another term or an integer constant."""

    left: Term
    right: Union[Term, int]

    def __str__(self) -> str:
        return f"{self.left} == {self.right}"


@dataclass
class IntervalProperty:
    """A bounded (interval) property with a symbolic starting state."""

    name: str
    assumptions: List[Equality] = field(default_factory=list)
    commitments: List[Equality] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise PropertyError("a property needs a non-empty name")

    def validate(self) -> None:
        if not self.commitments:
            raise PropertyError(f"property {self.name!r} has an empty prove part")
        if self.window() < 1:
            raise PropertyError(f"property {self.name!r} must span at least one clock cycle")

    def window(self) -> int:
        """Number of clock cycles spanned by the property (maximum time offset)."""
        times = [0]
        for constraint in list(self.assumptions) + list(self.commitments):
            times.append(constraint.left.time)
            if isinstance(constraint.right, Term):
                times.append(constraint.right.time)
        return max(times)

    def instances(self) -> Tuple[int, ...]:
        """Sorted instance indices referenced by the property."""
        indices = set()
        for constraint in list(self.assumptions) + list(self.commitments):
            indices.add(constraint.left.instance)
            if isinstance(constraint.right, Term):
                indices.add(constraint.right.instance)
        return tuple(sorted(indices)) or (0,)

    def assume_equal(self, signal: str, time: int = 0) -> None:
        """Add the 2-safety assumption ``inst1.signal@t+time == inst2.signal@t+time``."""
        self.assumptions.append(_mirrored(signal, time))

    def prove_equal(self, signal: str, time: int) -> None:
        """Add the 2-safety commitment ``inst1.signal@t+time == inst2.signal@t+time``."""
        self.commitments.append(_mirrored(signal, time))

    def proven_signals(self) -> List[str]:
        """Signals named on the left-hand side of commitments (report helper)."""
        return sorted({constraint.left.signal for constraint in self.commitments})

    def summary(self) -> str:
        lines = [f"property {self.name}:"]
        if self.description:
            lines.append(f"  -- {self.description}")
        lines.append("  assume:")
        for constraint in self.assumptions:
            lines.append(f"    {constraint}")
        lines.append("  prove:")
        for constraint in self.commitments:
            lines.append(f"    {constraint}")
        return "\n".join(lines)


@functools.lru_cache(maxsize=4096)
def _mirrored(signal: str, time: int) -> Equality:
    """``inst1.signal@t+time == inst2.signal@t+time``, built once per pair.

    Equalities are immutable, so properties can share them.  The flow's
    properties repeat the same pairs class after class (cumulative
    assumptions) and design after design, and building each afresh was
    most of the cost of property construction.
    """
    return Equality(Term(signal, time, instance=0), Term(signal, time, instance=1))


def pairwise_equalities(
    signals: Iterable[str], time: int, instances: Sequence[int] = (0, 1)
) -> List[Equality]:
    """Equality constraints ``instA.s@time == instB.s@time`` for every signal."""
    first, second = instances
    return [
        Equality(Term(signal, time, instance=first), Term(signal, time, instance=second))
        for signal in sorted(set(signals))
    ]
