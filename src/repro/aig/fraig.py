"""Fraig-style SAT sweeping: merge simulation-equivalent nodes by proof.

Classic functionally-reduced-AIG (fraig) preprocessing in the ABC lineage:
bit-parallel random simulation (:mod:`repro.aig.simvec`) partitions the
nodes of a cone into *equivalence candidates* — nodes whose signatures are
equal (or complementary) under every pattern — and a persistent
:class:`repro.sat.context.SolverContext` then proves or refutes each
candidate merge:

* **proved** (the XOR of the pair is UNSAT): the later node is merged onto
  the earlier one; every cone rebuilt afterwards
  (:func:`repro.aig.simplify.simplify_cone`) substitutes the representative
  and usually shrinks — the SAT solver never sees the duplicated logic.
* **refuted** (the XOR is satisfiable): the distinguishing model becomes a
  *new simulation pattern*, which splits every candidate class the pattern
  tells apart — counterexample-guided refinement.  Refuted pairs are
  remembered and never re-proved.

Nodes whose signature is constant-0/constant-1 are candidates against the
constants themselves; proving one merges it to FALSE/TRUE and constant
folding collapses its fanout cone.  This is the common hardware-Trojan
shape: a trigger cone that random simulation never activates is *proved*
constant (cheap UNSAT), or the refuting model is precisely a
trigger-activating pattern — which then feeds straight back into sim-first
falsification of the miter.

Proof effort is bounded (``conflict_limit`` per proof, ``max_proofs`` per
sweep); a proof that exceeds its budget is simply skipped — sweeping is an
optimisation, never a soundness obligation.  A sweep's wall-clock deadline
is the property check's own: a proof running past it raises
:class:`repro.errors.CheckDeadlineExceeded` to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.aig.aig import AIG, FALSE, TRUE, negate
from repro.aig.simplify import SimplifyResult, resolve_merge, simplify_cone
from repro.aig.simvec import PatternSet, node_signatures
from repro.errors import ConflictLimitExceeded
from repro.obs.trace import span as _span
from repro.sat.context import SolverContext

#: Per-proof conflict budget.  Equivalences inside one cone are usually
#: trivial for the solver; anything harder is not worth proving here.
DEFAULT_CONFLICT_LIMIT = 200

#: Per-sweep cap on SAT proof attempts, so a cone with thousands of
#: accidental signature collisions cannot turn preprocessing into the
#: dominant cost.
DEFAULT_MAX_PROOFS = 64


@dataclass
class FraigStats:
    """Accounting of one :meth:`FraigContext.sweep` call."""

    merged_nodes: int = 0
    proofs_unsat: int = 0
    proofs_sat: int = 0
    proofs_unknown: int = 0
    refinement_patterns: int = 0
    rounds: int = 0


@dataclass
class FraigContext:
    """Persistent sweeping state over one shared AIG + solver context.

    One context lives as long as its engine (per worker, per design), so
    merges proved while sweeping one property class keep shrinking the
    cones of every later class, and refinement patterns sharpen the
    signatures run-wide.
    """

    aig: AIG
    context: SolverContext
    patterns: PatternSet
    rounds: int = 1
    conflict_limit: int = DEFAULT_CONFLICT_LIMIT
    max_proofs: int = DEFAULT_MAX_PROOFS
    merges: Dict[int, int] = field(default_factory=dict)
    _refuted: Set[Tuple[int, int]] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Proof machinery
    # ------------------------------------------------------------------ #

    def _prove_equal(
        self, rep_literal: int, node_literal: int, deadline_s: Optional[float] = None
    ) -> Tuple[Optional[bool], bool]:
        """UNSAT check of ``rep XOR node``.

        Returns ``(verdict, pattern_added)``: verdict True = equal, False =
        refuted, None = proof budget hit.  ``pattern_added`` is True only
        when a refuting *model* was recorded as a refinement pattern — a
        structurally refuted pair (the XOR folds to TRUE) yields no new
        pattern, so it must not trigger another refinement round.
        """
        goal = self.aig.xor(rep_literal, node_literal)
        if goal == FALSE:
            return True, False
        if goal == TRUE:
            return False, False
        cnf_goal = self.context.literal_of(goal)
        try:
            outcome = self.context.solve(
                [cnf_goal], conflict_limit=self.conflict_limit, deadline_s=deadline_s
            )
        except ConflictLimitExceeded:
            return None, False
        if not outcome.satisfiable:
            return True, False
        assignment: Dict[int, int] = {}
        model = outcome.result.model
        for node in self.aig.cone_nodes([goal]):
            if not self.aig.is_input(node):
                continue
            literal = self.context.literal_of(node << 1)
            value = model.get(abs(literal))
            if value is not None:
                assignment[node] = int(value if literal > 0 else not value)
        self.patterns.add_pattern(assignment)
        return False, True

    def _resolved(self, node: int) -> int:
        return resolve_merge(self.merges, node << 1)

    # ------------------------------------------------------------------ #
    # Sweeping
    # ------------------------------------------------------------------ #

    def sweep(
        self,
        roots: List[int],
        cone: Optional[List[int]] = None,
        deadline_s: Optional[float] = None,
    ) -> Tuple[SimplifyResult, FraigStats]:
        """Refine, prove and merge over the cone of ``roots``; rebuild them.

        Returns the rebuilt roots (merges substituted, constants folded,
        rewriting rules applied) together with sweep statistics.  ``cone``
        is the roots' already-computed node list, when the caller holds one
        (the roots do not change across refinement rounds, so it stays
        valid for the whole sweep).  ``deadline_s`` is the absolute
        ``time.monotonic()`` deadline of every proof.
        """
        stats = FraigStats()
        aig = self.aig
        budget = self.max_proofs
        for _ in range(max(0, self.rounds)):
            stats.rounds += 1
            with _span("sim", stage="signatures"):
                signatures = node_signatures(aig, roots, self.patterns, cone=cone)
            mask = self.patterns.mask
            # Group candidate AND nodes by canonical signature; inputs are
            # never merge *targets* (they are free variables) but may serve
            # as representatives of an AND node equal to them.
            classes: Dict[int, List[int]] = {}
            for node, signature in signatures.items():
                if node == 0:
                    continue
                if resolve_merge(self.merges, node << 1) != node << 1:
                    continue  # already merged away
                canonical = min(signature, signature ^ mask)
                classes.setdefault(canonical, []).append(node)
            refined = False
            for canonical in sorted(classes):
                members = sorted(classes[canonical])
                if canonical == 0 and 0 not in members:
                    members.insert(0, 0)  # constant class: FALSE is the rep
                if len(members) < 2:
                    continue
                rep = members[0]
                rep_literal = self._resolved(rep)
                rep_signature = signatures.get(rep, 0)
                for node in members[1:]:
                    if budget <= 0:
                        break
                    if not aig.is_and(node):
                        continue  # never merge a free input away
                    pair = (rep, node)
                    if pair in self._refuted:
                        continue
                    node_literal = self._resolved(node)
                    if resolve_merge(self.merges, node << 1) != node << 1:
                        continue
                    target = (
                        node_literal
                        if signatures[node] == rep_signature
                        else negate(node_literal)
                    )
                    budget -= 1
                    verdict, pattern_added = self._prove_equal(
                        rep_literal, target, deadline_s
                    )
                    if verdict is True:
                        stats.proofs_unsat += 1
                        stats.merged_nodes += 1
                        self.merges[node] = (
                            rep_literal
                            if signatures[node] == rep_signature
                            else negate(rep_literal)
                        )
                    elif verdict is False:
                        stats.proofs_sat += 1
                        self._refuted.add(pair)
                        if pattern_added:
                            stats.refinement_patterns += 1
                            refined = True
                    else:
                        stats.proofs_unknown += 1
                if budget <= 0:
                    break
            if not refined or budget <= 0:
                break  # partition stable (or out of proof budget)
        result = simplify_cone(
            aig,
            roots,
            self.merges,
            nodes_before=len(cone) if cone is not None else None,
        )
        return result, stats
