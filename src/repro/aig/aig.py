"""And-Inverter Graph with structural hashing.

Literal encoding
----------------
A *node* is an integer index; node ``0`` is the constant-false node.  A
*literal* is ``2 * node + sign`` where ``sign == 1`` denotes complementation,
so ``FALSE == 0`` and ``TRUE == 1``.  Inputs (free variables) and AND nodes
share the node index space.

Structural hashing plus the usual two-level simplification rules mean that
two structurally identical cones built over the same input literals collapse
to the same literal.  The 2-safety engine of :mod:`repro.core.miter` relies on
this: after substituting assumed-equal signals of the second design instance
by the literals of the first, an untampered logic cone hashes to the
identical literal and the proof obligation discharges without any SAT call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

FALSE = 0
TRUE = 1


def negate(literal: int) -> int:
    """Complement a literal."""
    return literal ^ 1


class AIG:
    """A mutable And-Inverter Graph."""

    def __init__(self) -> None:
        # _nodes[i] is None for primary inputs, or (left_lit, right_lit) for ANDs.
        self._nodes: List[Optional[Tuple[int, int]]] = [None]  # node 0 = constant false
        self._strash: Dict[Tuple[int, int], int] = {}
        self._input_names: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: Optional[str] = None) -> int:
        """Create a fresh primary input and return its positive literal."""
        node = len(self._nodes)
        self._nodes.append(None)
        if name is not None:
            self._input_names[node] = name
        return node << 1

    def and_(self, a: int, b: int) -> int:
        """Return a literal for ``a AND b`` with two-level simplification.

        The only node constructor: the gates below call it once per
        two-input AND, so node numbers follow the order of these calls.
        They write ``negate`` as ``^ 1``: this kernel is the hottest
        Python code of a cold audit.
        """
        if a == FALSE or b == FALSE or a == b ^ 1:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            nodes = self._nodes
            node = len(nodes)
            nodes.append(key)
            self._strash[key] = node
        return node << 1

    def not_(self, a: int) -> int:
        return a ^ 1

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        # (a AND NOT b) OR (NOT a AND b)
        and_ = self.and_
        return and_(and_(a, b ^ 1) ^ 1, and_(a ^ 1, b) ^ 1) ^ 1

    def xnor(self, a: int, b: int) -> int:
        return self.xor(a, b) ^ 1

    def mux(self, select: int, then: int, otherwise: int) -> int:
        """``select ? then : otherwise``"""
        if select == TRUE:
            return then
        if select == FALSE:
            return otherwise
        if then == otherwise:
            return then
        and_ = self.and_
        return and_(and_(select, then) ^ 1, and_(select ^ 1, otherwise) ^ 1) ^ 1

    def and_many(self, literals: Iterable[int]) -> int:
        and_ = self.and_
        result = TRUE
        for literal in literals:
            result = and_(result, literal)
            if result == FALSE:
                return FALSE
        return result

    def or_many(self, literals: Iterable[int]) -> int:
        and_ = self.and_
        result = FALSE
        for literal in literals:
            result = and_(result ^ 1, literal ^ 1) ^ 1
            if result == TRUE:
                return TRUE
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_and_nodes(self) -> int:
        return sum(1 for node in self._nodes if node is not None)

    def is_input(self, node: int) -> bool:
        return node != 0 and self._nodes[node] is None

    def is_and(self, node: int) -> bool:
        return self._nodes[node] is not None

    def fanins(self, node: int) -> Tuple[int, int]:
        children = self._nodes[node]
        if children is None:
            raise ValueError(f"node {node} is not an AND node")
        return children

    def input_name(self, node: int) -> Optional[str]:
        return self._input_names.get(node)

    def inputs(self) -> List[int]:
        """All primary-input nodes."""
        return [node for node in range(1, len(self._nodes)) if self._nodes[node] is None]

    # ------------------------------------------------------------------ #
    # Cone traversal and evaluation
    # ------------------------------------------------------------------ #

    def cone_nodes(self, roots: Iterable[int]) -> List[int]:
        """All nodes in the transitive fanin cone of the root literals, topologically sorted."""
        nodes = self._nodes
        seen = {0}
        order: List[int] = []
        # Iterative DFS with explicit post-ordering: a node index schedules a
        # visit, its complement ``~node`` (always negative) its post-visit.
        stack = [literal >> 1 for literal in roots]
        while stack:
            node = stack.pop()
            if node < 0:
                order.append(~node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append(~node)
            children = nodes[node]
            if children is not None:
                left, right = children
                stack.append(left >> 1)
                stack.append(right >> 1)
        return order

    def evaluate(self, roots: Iterable[int], input_values: Dict[int, int]) -> List[int]:
        """Evaluate root literals under an assignment of input *nodes* to 0/1."""
        roots = list(roots)
        nodes = self._nodes
        values: Dict[int, int] = {0: 0}
        for node in self.cone_nodes(roots):
            children = nodes[node]
            if children is None:
                values[node] = input_values.get(node, 0) & 1
            else:
                left, right = children
                values[node] = (values[left >> 1] ^ (left & 1)) & (
                    values[right >> 1] ^ (right & 1)
                )
        return [values.get(literal >> 1, 0) ^ (literal & 1) for literal in roots]

    def evaluate_word_values(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> Dict[int, int]:
        """Bit-parallel evaluation: word of every node in the roots' cone.

        The shared kernel of :meth:`evaluate_words` and the fraig sweep's
        signature computation: ``input_words`` maps input *nodes* to machine
        words holding one assignment bit per pattern (bit ``i`` of every
        word belongs to pattern ``i``), ``mask`` is the all-ones word
        ``(1 << patterns) - 1``, and the returned dict holds the
        positive-literal word of every cone node.  Python ints carry
        arbitrarily many patterns in one word, so a single cone traversal
        evaluates the whole batch — complemented literals XOR against the
        mask instead of flipping bits one by one.  Callers that already
        hold the roots' topologically sorted cone pass it via ``cone`` to
        skip the repeat traversal.
        """
        nodes = self._nodes
        values: Dict[int, int] = {0: 0}
        for node in cone if cone is not None else self.cone_nodes(roots):
            children = nodes[node]
            if children is None:
                values[node] = input_words.get(node, 0) & mask
            else:
                left, right = children
                left_word = values[left >> 1]
                if left & 1:
                    left_word ^= mask
                right_word = values[right >> 1]
                if right & 1:
                    right_word ^= mask
                values[node] = left_word & right_word
        return values

    def evaluate_words(
        self,
        roots: Iterable[int],
        input_words: Dict[int, int],
        mask: int,
        cone: Optional[List[int]] = None,
    ) -> List[int]:
        """Bit-parallel evaluation of root literals over a batch of patterns.

        One word per root literal, in root order; see
        :meth:`evaluate_word_values` for the word semantics.
        """
        roots = list(roots)
        values = self.evaluate_word_values(roots, input_words, mask, cone=cone)
        results = []
        for literal in roots:
            word = values.get(literal >> 1, 0)
            results.append(word ^ mask if literal & 1 else word)
        return results
