"""Bit-parallel random simulation of AIG cones.

The preprocessing subsystem evaluates whole batches of random input patterns
in one cone traversal: every input node carries a *word* — a Python int with
one bit per pattern — and :meth:`repro.aig.aig.AIG.evaluate_words` combines
them with plain integer ``&``/``^``, so a 64-pattern batch costs barely more
than a single scalar :meth:`~repro.aig.aig.AIG.evaluate` call.  Two uses:

* **sim-first falsification** — a property miter whose word is non-zero
  under a random batch is satisfiable; the set bit *is* a counterexample and
  the SAT solver is never invoked (see :meth:`repro.ipc.engine.IpcEngine
  .begin_check`);
* **equivalence-candidate signatures** — nodes with different words cannot
  be equivalent, so fraig-style SAT sweeping (:mod:`repro.aig.fraig`) only
  pays solver calls for pairs random simulation could not tell apart.

Pattern words are *per-node seeded*: the word of input node ``n`` depends
only on ``(seed, n)``, never on the order in which cones were simulated.
Counterexample patterns appended later (:meth:`PatternSet.add_pattern`) are
the only order-dependent state — which is why the execution layer settles
counterexample-bearing classes on a fresh, deterministic context (see
:mod:`repro.exec.worker`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.aig.aig import AIG

#: Default number of random patterns per batch.  One 64-bit word per input
#: on a 64-bit host; Python ints make larger batches equally cheap per op.
DEFAULT_PATTERNS = 64

#: Default seed of the deterministic per-node pattern words.
DEFAULT_SEED = 0xF1A6

def _node_word_seed(seed: int, node: int) -> int:
    """Deterministic 64-bit mix of (seed, node) — stable across processes."""
    value = (seed * 0x9E3779B97F4A7C15 + node * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    value ^= value >> 31
    return value


class PatternSet:
    """A growing batch of input patterns, stored column-wise as words.

    ``words[node]`` holds bit ``i`` of input ``node`` under pattern ``i``.
    The first :attr:`base_patterns` columns are pseudo-random and a pure
    function of ``(seed, node)``; later columns are appended explicitly
    (counterexample-guided refinement of the fraig sweep).
    """

    def __init__(
        self,
        num_patterns: int = DEFAULT_PATTERNS,
        seed: int = DEFAULT_SEED,
        max_refinements: int = 256,
    ) -> None:
        if num_patterns < 1:
            raise ValueError(f"a pattern set needs >= 1 patterns, got {num_patterns}")
        self.base_patterns = num_patterns
        self.num_patterns = num_patterns
        self.seed = seed
        # Refinement columns are bounded: past ``max_refinements`` appended
        # patterns, the oldest refinement slot is recycled.  Without the cap
        # a long run's refuted fraig proofs would widen every word (and the
        # mask) without bound, making each later simulation batch slower.
        self.max_refinements = max_refinements
        self._next_refinement = 0
        self.words: Dict[int, int] = {}

    @property
    def mask(self) -> int:
        """The all-ones word ``(1 << num_patterns) - 1``."""
        return (1 << self.num_patterns) - 1

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #

    def _fresh_word(self, node: int) -> int:
        """Pattern word of a newly tracked input node.

        The first ``base_patterns`` bits are pseudo-random from the node's
        own seed; refinement columns appended before this node was first
        seen default to 0 (a refinement pattern constrains only the inputs
        its counterexample mentioned).
        """
        rng = random.Random(_node_word_seed(self.seed, node))
        return rng.getrandbits(self.base_patterns)

    def ensure_inputs(
        self, aig: AIG, roots: Iterable[int], cone: Optional[List[int]] = None
    ) -> None:
        """Track every input node in the cone of ``roots``.

        Callers that already hold the cone's node list (hot paths walk it
        anyway for size telemetry) pass it via ``cone`` to skip the repeat
        traversal.
        """
        words = self.words
        for node in cone if cone is not None else aig.cone_nodes(roots):
            if aig.is_input(node) and node not in words:
                words[node] = self._fresh_word(node)

    def add_pattern(self, assignment: Dict[int, int]) -> int:
        """Record one refinement pattern column; returns its index.

        Inputs absent from ``assignment`` get 0 in the column; inputs named
        by the assignment but not yet tracked are added (their earlier
        columns are the node's deterministic pseudo-random bits).  Once
        ``max_refinements`` columns exist, the oldest slot is recycled.
        """
        slot = self.base_patterns + (self._next_refinement % self.max_refinements)
        self._next_refinement += 1
        if slot >= self.num_patterns:
            self.num_patterns = slot + 1
        for node in assignment:
            if node not in self.words:
                self.words[node] = self._fresh_word(node)
        bit = 1 << slot
        for node in self.words:
            if assignment.get(node, 0) & 1:
                self.words[node] |= bit
            else:
                self.words[node] &= ~bit
        return slot

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self, aig: AIG, roots: List[int], cone: Optional[List[int]] = None
    ) -> List[int]:
        """Words of ``roots`` under the current batch (inputs auto-tracked)."""
        self.ensure_inputs(aig, roots, cone=cone)
        return aig.evaluate_words(roots, self.words, self.mask, cone=cone)

    def extract(
        self,
        aig: AIG,
        roots: Iterable[int],
        index: int,
        cone: Optional[List[int]] = None,
    ) -> Dict[int, int]:
        """The scalar input assignment of pattern ``index`` over a cone."""
        assignment: Dict[int, int] = {}
        for node in cone if cone is not None else aig.cone_nodes(roots):
            if aig.is_input(node):
                assignment[node] = (self.words.get(node, 0) >> index) & 1
        return assignment


def node_signatures(
    aig: AIG,
    roots: List[int],
    patterns: PatternSet,
    cone: Optional[List[int]] = None,
) -> Dict[int, int]:
    """Simulation signature (positive-literal word) of every cone node.

    Nodes whose signatures differ under even one pattern are provably
    inequivalent; equal signatures make a node pair a *candidate* for the
    fraig sweep's SAT proof.  Pass the roots' already-computed ``cone`` to
    skip the repeat traversals.
    """
    patterns.ensure_inputs(aig, roots, cone=cone)
    return aig.evaluate_word_values(roots, patterns.words, patterns.mask, cone=cone)


def first_satisfying_index(words: List[int], mask: int) -> Optional[int]:
    """Lowest pattern index at which *every* goal word is 1, or None."""
    combined = mask
    for word in words:
        combined &= word
        if not combined:
            return None
    return (combined & -combined).bit_length() - 1


def find_satisfying_pattern(
    aig: AIG, goals: List[int], patterns: PatternSet
) -> Optional[int]:
    """Index of the first pattern satisfying *all* goal literals, or None."""
    return first_satisfying_index(patterns.evaluate(aig, goals), patterns.mask)


def minimize_assignment(
    aig: AIG,
    goals: List[int],
    assignment: Dict[int, int],
    max_rounds: int = 256,
    cone: Optional[List[int]] = None,
) -> Dict[int, int]:
    """Greedily drive input bits of a satisfying assignment to 0.

    Random patterns set roughly half of all inputs, which buries the few
    bits a counterexample actually needs under noise (and makes the
    false-alarm diagnosis of :mod:`repro.core.falsealarm` see spurious
    differences everywhere).  This pass zeroes every input whose value the
    goals do not rely on, deterministically: candidate bits are processed in
    sorted node order, and each round evaluates all *cumulative prefixes*
    of candidate flips in one bit-parallel cone traversal — the longest
    prefix that keeps every goal true is accepted.  A candidate that fails
    even alone is pinned to 1 and never retried.  The result is a
    satisfying assignment that is minimal-ish, canonical for the given
    starting assignment, and independent of pattern-batch noise.
    """
    current = dict(assignment)
    pinned: set = set()
    for _ in range(max_rounds):
        candidates = sorted(
            node for node, value in current.items() if value and node not in pinned
        )
        if not candidates:
            break
        # Pattern j (0-based) flips candidates[0..j] to 0; evaluate all
        # prefixes in one traversal.
        count = len(candidates)
        mask = (1 << count) - 1
        words: Dict[int, int] = {}
        for node, value in current.items():
            words[node] = mask if value else 0
        for j, node in enumerate(candidates):
            # Candidate j is 0 in patterns j..count-1 (all prefixes >= j+1).
            words[node] = (1 << j) - 1
        goal_words = aig.evaluate_words(goals, words, mask, cone=cone)
        combined = mask
        for word in goal_words:
            combined &= word
        if combined == 0:
            # Even flipping the first candidate alone breaks a goal.
            pinned.add(candidates[0])
            continue
        # Longest prefix of flips that keeps every goal satisfied; the next
        # candidate (which failed in combination with this prefix) gets
        # retried in the following round, where it may succeed alone.
        accepted = combined.bit_length()  # highest satisfied prefix index + 1
        for node in candidates[: min(accepted, count)]:
            current[node] = 0
    return current
