"""Analysis toolkit for linear neutral delay systems with unit delay:
quasi-polynomial spectrum computation, controllability / stabilizability /
observability verdicts, stage-1 stabilizing synthesis, and method-of-steps
simulation.  The package exports each library module's __all__.
"""

from .analysis import *
from .linalg import *
from .simulate import *
from .spectrum import *
from .synthesis import *
from .system import *

__version__ = "0.1.0"
