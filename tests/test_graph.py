import itertools

import numpy as np
import pytest

from conftest import random_parent_sets
from mixedbn import (
    CycleError,
    ValidationError,
    d_separated,
    to_dot,
    validate_dag,
)
from oracles import moral_dsep


def chain(n):
    """0 -> 1 -> ... -> n-1."""
    return validate_dag([set() if i == 0 else {i - 1} for i in range(n)])


class TestValidateDag:
    def test_topological_order_puts_parents_first(self):
        structure = validate_dag([{1, 2}, {2}, set()])
        order = list(structure.topo_order)
        for child in range(3):
            for parent in structure.parents[child]:
                assert order.index(parent) < order.index(child)

    def test_children_mirror_parents(self):
        structure = validate_dag([{1}, {2}, set()])
        assert structure.children[1] == frozenset({0})
        assert structure.children[2] == frozenset({1})
        assert structure.children[0] == frozenset()

    def test_cycle_detected_with_witness(self):
        with pytest.raises(CycleError) as err:
            validate_dag([{1}, {0}])
        assert "->" in str(err.value)
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            validate_dag([{0}])

    def test_bad_index_rejected(self):
        with pytest.raises(ValidationError):
            validate_dag([{5}, set()])

    def test_edges_listing(self):
        structure = validate_dag([set(), {0}, {0, 1}])
        assert structure.edges() == [(0, 1), (0, 2), (1, 2)]


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        s = chain(3)
        assert not d_separated(s, 0, 2)
        assert d_separated(s, 0, 2, {1})

    def test_fork_blocked_by_root(self):
        s = validate_dag([set(), {0}, {0}])
        assert not d_separated(s, 1, 2)
        assert d_separated(s, 1, 2, {0})

    def test_collider_opens_when_conditioned(self):
        s = validate_dag([set(), set(), {0, 1}])
        assert d_separated(s, 0, 1)
        assert not d_separated(s, 0, 1, {2})

    def test_collider_descendant_also_opens(self):
        s = validate_dag([set(), set(), {0, 1}, {2}])
        assert d_separated(s, 0, 1)
        assert not d_separated(s, 0, 1, {3})

    def test_endpoint_in_conditioning_set_rejected(self):
        s = chain(2)
        with pytest.raises(ValidationError):
            d_separated(s, 0, 1, {0})

    def test_identical_endpoints_rejected(self):
        s = chain(2)
        with pytest.raises(ValidationError):
            d_separated(s, 1, 1)

    def test_oracle_self_check(self):
        """The moralization oracle reproduces the textbook cases."""
        chain_parents = [set(), {0}, {1}]
        assert not moral_dsep(chain_parents, 0, 2)
        assert moral_dsep(chain_parents, 0, 2, {1})
        collider = [set(), set(), {0, 1}]
        assert moral_dsep(collider, 0, 1)
        assert not moral_dsep(collider, 0, 1, {2})
        descendant = [set(), set(), {0, 1}, {2}]
        assert not moral_dsep(descendant, 0, 1, {3})

    def test_agreement_with_moral_oracle_small(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            parents = random_parent_sets(rng, n)
            s = validate_dag(parents)
            nodes = range(n)
            for i, j in itertools.combinations(nodes, 2):
                rest = [v for v in nodes if v not in (i, j)]
                for size in range(len(rest) + 1):
                    for z in itertools.combinations(rest, size):
                        assert d_separated(s, i, j, z) == moral_dsep(
                            parents, i, j, z
                        )


class TestToDot:
    def test_deterministic_text(self):
        s = validate_dag([set(), {0}, {0}])
        text = to_dot(s, ["a", "b", "c"])
        assert text == to_dot(s, ["a", "b", "c"])
        assert text.startswith("digraph")
        assert text.endswith("\n")
        assert '"a" -> "b"' in text
        assert '"a" -> "c"' in text

    def test_default_names(self):
        s = chain(2)
        text = to_dot(s)
        assert '"x1" -> "x2"' in text
