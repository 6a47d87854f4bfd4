"""partlab: exact and Monte Carlo tools for integer partitions.

Exact predicates (graphicality, dominance), exact counting and
unranking, seedable uniform and Boltzmann samplers, an exponential
surrogate walk with event estimators, a harmonic-weighted Gaussian
process lab, and the decay-exponent solver, all behind one CLI
(``partlab``).
"""

__version__ = "0.1.0"

from .counting import PartitionTable
from .gaussian import ExponentSolution
from .partitions import Partition
from .rng import RandomStream
from .stats import EventEstimate

__all__ = [
    "__version__",
    "EventEstimate",
    "ExponentSolution",
    "Partition",
    "PartitionTable",
    "RandomStream",
]
