"""Regression-tree substrate (paper Section 6.1 builds on CART [2]).

:mod:`~repro.tree.splits` provides the split primitives — the
:class:`~repro.tree.splits.Split` bisection of a node by an
(attribute, value) pair and the variance-reduction metric;
:mod:`~repro.tree.node` the tree nodes (each node *is* a predicate
box).

The DT partitioner reuses the split primitives and node structure but
runs its own synchronized multi-group recursion with the influence-aware
stopping threshold (Sections 6.1.1–6.1.3).  It scores range splits for
all attributes and groups of a node with
:func:`~repro.tree.splits.grouped_range_split_errors` and applies set
splits through factorized codes; it no longer calls
:func:`~repro.tree.splits.range_split_errors` or
:meth:`~repro.tree.splits.Split.left_mask`, which stay as the
definitions the tests compare it against.
"""

from repro.tree.node import TreeNode
from repro.tree.splits import (
    Split,
    grouped_range_split_errors,
    node_error,
    range_split_errors,
)

__all__ = [
    "Split",
    "TreeNode",
    "grouped_range_split_errors",
    "node_error",
    "range_split_errors",
]
