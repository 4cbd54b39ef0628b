"""Tseitin conversion of AIG cones into CNF for the SAT solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.aig.aig import AIG, FALSE, TRUE


@dataclass
class Cnf:
    """A CNF formula in DIMACS-style integer literals (1-based variables)."""

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)

    def add_clause(self, clause: Iterable[int]) -> None:
        self.clauses.append(list(clause))

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class CnfBuilder:
    """Incrementally encodes AIG nodes into a CNF formula.

    The builder caches the CNF variable of every encoded AIG node, so repeated
    calls for overlapping cones share clauses — this is what makes the
    iterative property-by-property flow cheap.
    """

    def __init__(self, aig: AIG) -> None:
        self._aig = aig
        self._cnf = Cnf()
        self._node_to_var: Dict[int, int] = {}
        # Constant-true variable, asserted once.
        self._true_var = self._cnf.new_var()
        self._cnf.add_clause([self._true_var])

    @property
    def cnf(self) -> Cnf:
        return self._cnf

    def literal_of(self, aig_literal: int) -> int:
        """Encode the cone of ``aig_literal`` and return the CNF literal."""
        if aig_literal == TRUE:
            return self._true_var
        if aig_literal == FALSE:
            return -self._true_var
        node = aig_literal >> 1
        self._encode_cone(node)
        variable = self._node_to_var[node]
        return -variable if aig_literal & 1 else variable

    def _encode_cone(self, root: int) -> None:
        if root in self._node_to_var or root == 0:
            return
        for node in self._aig.cone_nodes([root << 1]):
            if node in self._node_to_var or node == 0:
                continue
            variable = self._cnf.new_var()
            self._node_to_var[node] = variable
            if self._aig.is_input(node):
                continue
            left, right = self._aig.fanins(node)
            left_literal = self._child_literal(left)
            right_literal = self._child_literal(right)
            # variable <-> left AND right
            self._cnf.add_clause([-variable, left_literal])
            self._cnf.add_clause([-variable, right_literal])
            self._cnf.add_clause([variable, -left_literal, -right_literal])

    def _child_literal(self, aig_literal: int) -> int:
        node = aig_literal >> 1
        if node == 0:
            base = self._true_var
            return -base if not (aig_literal & 1) else base  # FALSE=0 -> -true, TRUE=1 -> +true
        variable = self._node_to_var[node]
        return -variable if aig_literal & 1 else variable
