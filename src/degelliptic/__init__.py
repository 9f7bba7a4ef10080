"""Radial solutions, barriers, and a wide-stencil 2D grid solver for
degenerate elliptic Dirichlet problems with power-growth gradient terms.

The package exports each module's ``__all__``; a public name is declared
once, in its home module."""

from . import barriers, errors, grid, model, radial, verify
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .radial import *  # noqa: F403
from .barriers import *  # noqa: F403
from .grid import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for m in (errors, model, radial, barriers, grid, verify) for name in m.__all__
]
