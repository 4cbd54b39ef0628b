"""Tests for the And-Inverter Graph."""

import itertools

from hypothesis import given, strategies as st

from repro.aig.aig import AIG, FALSE, TRUE, negate


class TestSimplificationRules:
    def test_and_with_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, FALSE) == FALSE

    def test_and_with_true(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, TRUE) == a

    def test_and_idempotent(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, a) == a

    def test_and_with_complement_is_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_(a, negate(a)) == FALSE

    def test_structural_hashing_shares_nodes(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        first = aig.and_(a, b)
        second = aig.and_(b, a)
        assert first == second
        assert aig.num_and_nodes == 1

    def test_mux_constant_select(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert aig.mux(TRUE, a, b) == a
        assert aig.mux(FALSE, a, b) == b

    def test_mux_same_branches(self):
        aig = AIG()
        s, a = aig.add_input("s"), aig.add_input("a")
        assert aig.mux(s, a, a) == a

    def test_or_many_short_circuits_on_true(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.or_many([a, TRUE, aig.add_input("b")]) == TRUE

    def test_and_many_short_circuits_on_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_many([a, FALSE]) == FALSE

    def test_input_names_recorded(self):
        aig = AIG()
        literal = aig.add_input("my_signal[3]")
        assert aig.input_name(literal >> 1) == "my_signal[3]"


class TestEvaluation:
    def _truth_table(self, build):
        """Evaluate a two-input function built over an AIG for all input values."""
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        root = build(aig, a, b)
        table = {}
        for va, vb in itertools.product((0, 1), repeat=2):
            table[(va, vb)] = aig.evaluate([root], {a >> 1: va, b >> 1: vb})[0]
        return table

    def test_and_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.and_(a, b))
        assert table == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_or_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.or_(a, b))
        assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_xor_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.xor(a, b))
        assert table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}

    def test_xnor_truth_table(self):
        table = self._truth_table(lambda g, a, b: g.xnor(a, b))
        assert table == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_mux_truth_table(self):
        aig = AIG()
        s, a, b = aig.add_input("s"), aig.add_input("a"), aig.add_input("b")
        root = aig.mux(s, a, b)
        for vs, va, vb in itertools.product((0, 1), repeat=3):
            expected = va if vs else vb
            value = aig.evaluate([root], {s >> 1: vs, a >> 1: va, b >> 1: vb})[0]
            assert value == expected

    def test_constants_evaluate(self):
        aig = AIG()
        assert aig.evaluate([TRUE, FALSE], {}) == [1, 0]

    def test_missing_input_defaults_to_zero(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.evaluate([a], {}) == [0]

    def test_cone_nodes_topological(self):
        aig = AIG()
        a, b, c = (aig.add_input(x) for x in "abc")
        ab = aig.and_(a, b)
        root = aig.and_(ab, c)
        order = aig.cone_nodes([root])
        assert order.index(ab >> 1) < order.index(root >> 1)

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=16))
    def test_composed_expression_matches_python(self, rows):
        aig = AIG()
        a, b, c = (aig.add_input(x) for x in "abc")
        # f = (a AND b) XOR (NOT c)
        root = aig.xor(aig.and_(a, b), negate(c))
        for va, vb, vc in rows:
            expected = int((va and vb) != (not vc))
            value = aig.evaluate(
                [root], {a >> 1: int(va), b >> 1: int(vb), c >> 1: int(vc)}
            )[0]
            assert value == expected


def _random_cone(rng, num_inputs=5, num_gates=25):
    """A random AIG cone over ``num_inputs`` inputs; returns (aig, root)."""
    aig = AIG()
    literals = [aig.add_input(f"i{k}") for k in range(num_inputs)]
    for _ in range(num_gates):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_(a, b))
    return aig, literals[-1] ^ rng.randint(0, 1)


class TestEvaluateWords:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_scalar_evaluate_on_random_cones(self, seed):
        import random

        rng = random.Random(seed)
        aig, root = _random_cone(rng)
        inputs = aig.inputs()
        num_patterns = 16
        words = {node: rng.getrandbits(num_patterns) for node in inputs}
        mask = (1 << num_patterns) - 1
        word = aig.evaluate_words([root], words, mask)[0]
        for index in range(num_patterns):
            scalar = {node: (words[node] >> index) & 1 for node in inputs}
            expected = aig.evaluate([root], scalar)[0]
            assert (word >> index) & 1 == expected

    def test_constant_roots(self):
        aig = AIG()
        aig.add_input("a")
        mask = (1 << 8) - 1
        assert aig.evaluate_words([TRUE], {}, mask) == [mask]
        assert aig.evaluate_words([FALSE], {}, mask) == [0]

    def test_untracked_inputs_default_to_zero(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        node = aig.and_(a, b)
        mask = 0b1111
        assert aig.evaluate_words([node], {a >> 1: mask}, mask) == [0]


class TestNodeCounting:
    def test_num_and_nodes_counts_only_and_gates(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert aig.num_and_nodes == 0
        aig.and_(a, b)
        assert aig.num_and_nodes == 1
        assert aig.num_nodes == 4  # constant + 2 inputs + 1 AND


# ---------------------------------------------------------------------- #
# Kernel equivalence: the gates build what their compositions build
# ---------------------------------------------------------------------- #


class _ReferenceGates:
    """The composite gates as plain compositions of ``and_`` and ``negate``."""

    def __init__(self, aig):
        self.aig = aig

    def and_(self, a, b):
        return self.aig.and_(a, b)

    def or_(self, a, b):
        return negate(self.aig.and_(negate(a), negate(b)))

    def xor(self, a, b):
        return self.or_(self.aig.and_(a, negate(b)), self.aig.and_(negate(a), b))

    def xnor(self, a, b):
        return negate(self.xor(a, b))

    def mux(self, select, then, otherwise):
        if select == TRUE:
            return then
        if select == FALSE:
            return otherwise
        if then == otherwise:
            return then
        return self.or_(self.aig.and_(select, then), self.aig.and_(negate(select), otherwise))

    def and_many(self, literals):
        result = TRUE
        for literal in literals:
            result = self.aig.and_(result, literal)
            if result == FALSE:
                return FALSE
        return result

    def or_many(self, literals):
        result = FALSE
        for literal in literals:
            result = self.or_(result, literal)
            if result == TRUE:
                return TRUE
        return result


def _reference_cone(aig, roots):
    """Recursive post-order DFS: right fanin first, last root first."""
    seen = set()
    order = []

    def visit(node):
        if node == 0 or node in seen:
            return
        seen.add(node)
        if aig.is_and(node):
            left, right = aig.fanins(node)
            visit(right >> 1)
            visit(left >> 1)
        order.append(node)

    for literal in reversed(roots):
        visit(literal >> 1)
    return order


_BINARY_GATES = ("and_", "or_", "xor", "xnor")
_OPERAND = st.tuples(st.integers(min_value=0, max_value=63), st.booleans())
_GATE_STEP = st.one_of(
    st.tuples(st.sampled_from(_BINARY_GATES), st.lists(_OPERAND, min_size=2, max_size=2)),
    st.tuples(st.just("mux"), st.lists(_OPERAND, min_size=3, max_size=3)),
    st.tuples(st.sampled_from(("and_many", "or_many")), st.lists(_OPERAND, max_size=5)),
)


def _replay(aig, gates, num_inputs, steps):
    """Apply ``steps`` through ``gates`` on ``aig``; every result joins the operand pool."""
    pool = [FALSE, TRUE] + [aig.add_input(f"i{k}") for k in range(num_inputs)]
    results = []
    for gate, operands in steps:
        literals = [pool[index % len(pool)] ^ flip for index, flip in operands]
        if gate in ("and_many", "or_many"):
            result = getattr(gates, gate)(literals)
        else:
            result = getattr(gates, gate)(*literals)
        pool.append(result)
        results.append(result)
    return results


class TestKernelEquivalence:
    @given(
        num_inputs=st.integers(min_value=1, max_value=5),
        steps=st.lists(_GATE_STEP, min_size=1, max_size=40),
        root_picks=st.lists(st.integers(min_value=0, max_value=63), max_size=6),
    )
    def test_gates_build_the_reference_nodes_in_order(self, num_inputs, steps, root_picks):
        aig, reference = AIG(), AIG()
        results = _replay(aig, aig, num_inputs, steps)
        assert results == _replay(reference, _ReferenceGates(reference), num_inputs, steps)
        assert aig.num_nodes == reference.num_nodes
        for node in range(1, aig.num_nodes):
            assert aig.is_and(node) == reference.is_and(node)
            if aig.is_and(node):
                assert aig.fanins(node) == reference.fanins(node)
        roots = [results[pick % len(results)] for pick in root_picks]
        assert aig.cone_nodes(roots) == _reference_cone(aig, roots)
        assert aig.cone_nodes(results) == _reference_cone(aig, results)
