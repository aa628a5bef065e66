"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(20060327)


@pytest.fixture
def paper_table() -> IncompleteTable:
    """The 10-record cardinality-5 example of the paper's Tables 1-4."""
    schema = Schema([AttributeSpec("a1", 5)])
    column = np.array([5, 2, 3, 0, 4, 5, 1, 3, 0, 2], dtype=np.int64)
    return IncompleteTable(schema, {"a1": column})


@pytest.fixture
def unit_costs(monkeypatch):
    """Price plans with injected per-kind unit costs instead of measuring.

    Returns ``install(**{kind: UnitCosts})``; a kind left out is priced by
    the ``default`` costs (one nanosecond per word or code).
    """
    from repro.core import planner

    costs = {
        "default": planner.UnitCosts(
            ns=planner.Work(words=1.0, codes=1.0), spread=0.0
        )
    }
    monkeypatch.setattr(
        planner._CALIBRATIONS, "get",
        lambda attached: costs.get(attached.kind, costs["default"]),
    )
    return costs.update


@pytest.fixture
def small_table() -> IncompleteTable:
    """A 1000-record mixed-cardinality table with varied missing rates."""
    return generate_uniform_table(
        1000,
        {"low": 2, "mid": 10, "high": 100},
        {"low": 0.5, "mid": 0.2, "high": 0.0},
        seed=7,
    )


@pytest.fixture
def complete_table() -> IncompleteTable:
    """A table with no missing data at all."""
    return generate_uniform_table(
        500, {"x": 10, "y": 20}, {"x": 0.0, "y": 0.0}, seed=3
    )
