"""The shared miter preprocessor: sim-first falsification, then sweeping.

One implementation of the two-stage pipeline both property engines run
before handing a miter to the SAT solver — :class:`repro.ipc.engine
.IpcEngine` preprocesses ``[miter] + clause_assumptions`` per combinational
check, :class:`repro.core.unroll.SequentialUnroller` preprocesses the
unrolled divergence miter.  The stages:

1. evaluate every goal over the persistent random-pattern batch in one
   bit-parallel cone traversal; a pattern satisfying *all* goals is a
   genuine counterexample, returned (zero-minimized) as :attr:`PreprocessOutcome
   .sim_model` — the caller then never invokes the CDCL solver;
2. otherwise fraig-sweep the goal cones (one refinement round) and return
   the rebuilt, usually smaller goal literals.

The preprocessor owns the lazily created :class:`PatternSet` and
:class:`FraigContext`, so patterns (plus every refinement pattern learned
from refuted proofs) and proven merges persist for its owner's lifetime.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aig.aig import AIG
from repro.aig.fraig import FraigContext
from repro.aig.simvec import PatternSet, first_satisfying_index, minimize_assignment
from repro.obs.trace import span as _span
from repro.sat.context import SolverContext


@dataclass
class PreprocessOutcome:
    """What one preprocessing pass produced, plus its telemetry."""

    #: A concrete falsifying input assignment (AIG input node -> bit) when
    #: random simulation satisfied every goal; None otherwise.
    sim_model: Optional[Dict[int, int]] = None
    #: The goal literals the solver should check instead of the originals
    #: (identical to the input roots when no sweeping happened).
    roots: List[int] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0
    merged_nodes: int = 0
    elapsed_seconds: float = 0.0

    @property
    def sim_falsified(self) -> bool:
        return self.sim_model is not None


class Preprocessor:
    """Persistent preprocessing state over one shared AIG + solver context."""

    def __init__(self, aig: AIG, context: SolverContext) -> None:
        self._aig = aig
        self._context = context
        self._patterns: Optional[PatternSet] = None
        self._fraig: Optional[FraigContext] = None

    @property
    def patterns(self) -> PatternSet:
        if self._patterns is None:
            self._patterns = PatternSet()
        return self._patterns

    @property
    def fraig(self) -> FraigContext:
        if self._fraig is None:
            self._fraig = FraigContext(
                aig=self._aig, context=self._context, patterns=self.patterns
            )
        return self._fraig

    def run(
        self, roots: List[int], deadline_s: Optional[float] = None
    ) -> PreprocessOutcome:
        """Preprocess the conjunction of ``roots`` (all goals must hold).

        ``deadline_s`` (absolute ``time.monotonic()``) bounds the sweep's SAT
        proofs; past it they raise :class:`repro.errors.CheckDeadlineExceeded`.
        """
        started = _time.perf_counter()
        aig = self._aig
        with _span("preprocess"):
            cone = aig.cone_nodes(roots)  # walked once, shared by every stage
            outcome = PreprocessOutcome(roots=list(roots), nodes_before=len(cone))
            patterns = self.patterns
            with _span("sim", cone_nodes=len(cone)):
                words = patterns.evaluate(aig, roots, cone=cone)
                index = first_satisfying_index(words, patterns.mask)
            if index is not None:
                with _span("sim", stage="minimize"):
                    assignment = patterns.extract(aig, roots, index, cone=cone)
                    outcome.sim_model = minimize_assignment(aig, roots, assignment, cone=cone)
                outcome.nodes_after = outcome.nodes_before
            else:
                with _span("fraig", cone_nodes=len(cone)):
                    swept, stats = self.fraig.sweep(
                        roots, cone=cone, deadline_s=deadline_s
                    )
                outcome.roots = swept.roots
                outcome.nodes_after = swept.nodes_after
                outcome.merged_nodes = stats.merged_nodes
        outcome.elapsed_seconds = _time.perf_counter() - started
        return outcome
