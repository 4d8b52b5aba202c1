"""Linear Jaco graphs and exact irregularity metrics.

The package derives the degrees of the sequential Jaco construction from a
closed form for its out-degrees (Hofstadter's G-sequence), computes total
irregularity, Fibonacci irregularity, and the signed-weight variant with
exact integer arithmetic, and verifies the recursive and union identities
these metrics satisfy against independent brute-force recomputation.
"""

from . import fibonacci, graphs, irregularity, jaco, theorems
from .fibonacci import *
from .graphs import *
from .irregularity import *
from .jaco import *
from .theorems import *

__version__ = "1.0.0"

# The public names of the five modules, each listed once, in its module.
__all__ = [*fibonacci.__all__, *graphs.__all__, *irregularity.__all__, *jaco.__all__, *theorems.__all__, "__version__"]
