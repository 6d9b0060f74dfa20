"""Regression-tree substrate (paper Section 6.1 builds on CART [2]).

:mod:`~repro.tree.splits` provides the split primitives — the
:class:`~repro.tree.splits.Split` bisection of a node by an
(attribute, value) pair and the variance-reduction metric;
:mod:`~repro.tree.node` the tree nodes (each node *is* a predicate
box).

The DT partitioner reuses the split primitives and node structure but
runs its own synchronized multi-group recursion with the influence-aware
stopping threshold (Sections 6.1.1–6.1.3).
"""

from repro.tree.node import TreeNode
from repro.tree.splits import (
    Split,
    node_error,
    range_split_errors,
)

__all__ = [
    "Split",
    "TreeNode",
    "node_error",
    "range_split_errors",
]
