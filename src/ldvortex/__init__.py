"""Lawrence-Doniach layered-superconductor simulator.

Minimizes the discrete Gibbs free energy of a finite stack of
superconducting planes in a parallel field, finds and classifies all
low-energy critical points, and checks the small-coupling expansion
(vortex planes, the 2^N critical-point census, nucleation fields and
the validity-radius bounds) against the numerics.
"""

from .errors import (DegenerateField, DomainError, FactorizationFailure,
                     InvalidParameters, LdError, NoCompleteCycle,
                     NoConvergence, NonFinite, ShapeMismatch, SingularHessian)
from .params import Grid1D, LdParameters, default_dx, phase_offsets, validate
from .state import (LayeredState, gauge_fix, gauge_transform,
                    uniform_field_state, zero_coupling_minimizer)
from .observables import Observables, distance, lift_field_2d, observables
from .energy import (EnergyBreakdown, el_residual, gradient, gradient_check,
                     total_energy)
from .minimize import (CriticalPoint, MinimizeReport, hessian_apply, inertia,
                       minimize, newton_critical)

__version__ = "0.1.0"
