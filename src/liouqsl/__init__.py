"""Quantum speed limits for Lindblad dynamics in Liouville space."""

from .exceptions import *
from .liouville import *
from .lindblad import *
from .serialize import *
from .evolve import *
from .qsl import *
from .optimal import *
from .spectral import *
from .applications import *

__version__ = "0.1.0"
