"""Dataset generators for the paper's three experimental workloads.

* :mod:`~repro.datasets.synth` — the Section 8.1 SYNTH generator (nested
  random hyper-cubes of outlier tuples inside 2–4 dimensional groups);
* :mod:`~repro.datasets.intel` — a statistically matched simulator of the
  Intel Lab sensor trace with the two failure workloads the paper
  analyzes (the original trace is not available offline);
* :mod:`~repro.datasets.expenses` — a generator shaped like the FEC 2012
  campaign-expense file with the Obama media-buy outlier days.

Every generator returns a dataset object bundling the table, the paper's
query, the outlier/hold-out annotations, and the ground-truth masks the
evaluation harness scores against.
"""

from repro.datasets.expenses import ExpensesConfig, ExpensesDataset, generate_expenses
from repro.datasets.intel import IntelConfig, IntelDataset, generate_intel, make_intel
from repro.datasets.synth import SynthConfig, SynthDataset, generate_synth, make_synth

__all__ = [
    "ExpensesConfig",
    "ExpensesDataset",
    "IntelConfig",
    "IntelDataset",
    "SynthConfig",
    "SynthDataset",
    "generate_expenses",
    "generate_intel",
    "generate_synth",
    "make_intel",
    "make_synth",
]
