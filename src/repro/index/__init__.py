"""Prefix-aggregate index subsystem: sub-O(n) influence scoring for the
predicate shapes Scorpion's search floods the scorer with.

:class:`PrefixAggregateIndex` precomputes, per labeled group: sorted
rows plus prefix-summed aggregate state per continuous attribute
(single range clauses → two binary searches), and code-bucketed rows
plus per-bucket aggregate state per discrete attribute (single set
clauses → O(|codes|) bucket lookups).  2-clause conjunctions probe the
rarer clause's view and mask-test only its rows.
:class:`IndexPlanner` routes each predicate of a batch to the
argmin-estimated-cost tier — index or mask kernel — using the shared
:class:`CostModel` (the shipped per-tier nanosecond constants
:data:`DEFAULT_CONSTANTS`; see :mod:`repro.index.cost`).  See the module
docstrings of :mod:`repro.index.prefix`, :mod:`repro.index.discrete`,
:mod:`repro.index.cost`, and :mod:`repro.index.planner` for the
exact-equality arguments and the routing rules.
"""

from repro.index.cost import (
    DEFAULT_CONSTANTS,
    CostConstants,
    CostModel,
    force_index_model,
    force_mask_model,
)
from repro.index.discrete import GroupDiscreteIndex
from repro.index.planner import ConjunctionPlan, IndexPlanner, IndexRoute
from repro.index.prefix import (
    EXACT_SUM_BUDGET,
    GroupAttributeIndex,
    PrefixAggregateIndex,
    exactly_summable,
    gather_slice_states,
)

__all__ = [
    "DEFAULT_CONSTANTS",
    "EXACT_SUM_BUDGET",
    "ConjunctionPlan",
    "CostConstants",
    "CostModel",
    "GroupAttributeIndex",
    "GroupDiscreteIndex",
    "IndexPlanner",
    "IndexRoute",
    "PrefixAggregateIndex",
    "exactly_summable",
    "force_index_model",
    "force_mask_model",
    "gather_slice_states",
]
