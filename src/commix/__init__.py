"""Commutator criteria for mixing: operators, Birkhoff averages, models.

The package splits into matrix infrastructure (operators), the commutator
and degree machinery (commutators), correlation and Fourier diagnostics
(mixing), torus and group-valued skew products (skew), directed-graph
windows (graphs), and a batch scenario runner (cli).
"""

# each module's __all__ is the one statement of what it makes public
from .errors import *
from .operators import *
from .commutators import *
from .mixing import *
from .skew import *
from .graphs import *

__version__ = "0.1.0"
