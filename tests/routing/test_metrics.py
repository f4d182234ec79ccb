"""Tests for the transmissivity routing metric."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ValidationError
from repro.routing.metrics import (
    DEFAULT_EPSILON,
    edge_cost,
    path_cost,
    path_edges,
    path_transmissivity,
)

etas = st.floats(min_value=0.0, max_value=1.0)


class TestEdgeCost:
    def test_formula(self):
        assert edge_cost(0.5, 1e-6) == pytest.approx(1.0 / 0.500001)

    def test_better_links_cost_less(self):
        assert edge_cost(0.9) < edge_cost(0.5) < edge_cost(0.1)

    def test_epsilon_guards_zero(self):
        assert edge_cost(0.0) == pytest.approx(1.0 / DEFAULT_EPSILON)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            edge_cost(1.5)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            edge_cost(0.5, 0.0)


class TestPathCost:
    def test_sums_edges(self):
        assert path_cost([0.5, 0.5]) == pytest.approx(2 * edge_cost(0.5))

    def test_empty_path_zero(self):
        assert path_cost([]) == 0.0


class TestPathTransmissivity:
    def test_product(self):
        assert path_transmissivity([0.5, 0.4]) == pytest.approx(0.2)

    def test_empty_is_unity(self):
        assert path_transmissivity([]) == 1.0

    @given(st.lists(etas, min_size=1, max_size=6))
    def test_property_bounded_by_worst_link(self, link_etas):
        assert path_transmissivity(link_etas) <= min(link_etas) + 1e-12

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            path_transmissivity([0.5, 1.5])

    def test_scalar_fast_path_equals_array(self):
        """The scalar fast path of the serve hot loop stays exact."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            etas = [float(x) for x in rng.uniform(0.01, 1.0, size=n)]
            assert path_transmissivity(etas) == float(
                np.prod(np.asarray(etas, dtype=float))
            )


class TestPathEdges:
    def test_extracts_etas(self):
        graph = {"a": {"b": 0.9}, "b": {"a": 0.9, "c": 0.8}, "c": {"b": 0.8}}
        assert path_edges(graph, ["a", "b", "c"]) == [0.9, 0.8]

    def test_missing_edge_rejected(self):
        graph = {"a": {"b": 0.9}, "b": {"a": 0.9}}
        with pytest.raises(ValidationError):
            path_edges(graph, ["a", "b", "c"])
