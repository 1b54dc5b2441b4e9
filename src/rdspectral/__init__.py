"""Pseudospectral solvers for periodic reaction-diffusion systems.

The package integrates semilinear systems u_t = d lap(u) + F(u) on
periodic 1D/2D boxes by Fourier collocation: diffusion is applied
exactly through the diagonal spectral symbol, only the reaction is
stepped explicitly.  Fixed-step integrating-factor RK4, an embedded
Cash-Karp 4(5) adaptive variant, two ETD schemes and a dense-matrix ADI
cost/accuracy baseline share one run loop.  A small
model registry carries the benchmark systems, and postprocessing
covers spectral upsampling, front tracking, and pulse counting.

Each module's ``__all__`` is the one list of its public names, and the
package exports exactly those.  The ADI run is steppers' ``adi_integrate``;
the dense algebra under it stays in ``rdspectral.adi``, which exports nothing.
"""

from .grid import *
from .models import *
from .steppers import *
from .postprocess import *
from .runio import *
from .harness import *
from . import adi, grid, harness, models, postprocess, runio, steppers

__version__ = "0.1.0"

__all__ = [name for module in (grid, models, steppers, adi, postprocess, runio, harness)
           for name in module.__all__] + ["__version__"]
