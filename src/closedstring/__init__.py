"""Classical closed-string invariants on a truncated mode phase space.

Library layout:

- ``phase_space``: states, chiral field evaluation, Virasoro densities
- ``numerics``: spectral transforms, iterated simplex integrals, monotone
  circle-map inversion
- ``ddf``: reparameterization clocks, DDF modes/invariants, quasi-local
  field reconstructions
- ``pohlmeyer``: iterated-integral invariants, Wilson loops
- ``reparam``: circle diffeos and weight-one pullbacks
- ``poisson``: bracket engine with exact chart gradients
- ``verify`` / ``cli``: reproducible check suites and the command line
"""

__version__ = "0.1.0"

from .errors import (DegenerateFrame, GradientMismatch, LevelMismatch, NonMonotone,
                     NotConverged)
from .phase_space import (DEFAULT_DECAY, DEFAULT_TENSION, FieldGrid,
                          LightlikeFrame, StringState, com_momentum,
                          default_frame, eta_dot, eval_field, minkowski,
                          position_field, random_state, state_from_json,
                          state_to_json, virasoro_density)
from .numerics import (TAU, MonotoneCircleMap, grid_sigma, grid_to_modes,
                       invert_monotone, modes_to_grid, periodic_antiderivative,
                       real_modes, simplex_iterated_integral, trig_interpolate)
from .ddf import (DDFInvariantSpec, DDFModes, compute_R, ddf_invariant,
                  ddf_modes, ddfmodes_from_json, ddfmodes_to_json,
                  reconstruct_field, reconstruct_field_direct,
                  strip_zero_mode, zero_mode_phase)
from .pohlmeyer import (InvariantSpec, WilsonConfig, align_base_point,
                        pohlmeyer_invariant, pohlmeyer_invariants,
                        pohlmeyer_via_ddf, reparam_check, wilson_loop)
from .reparam import ReparamMap, pullback_weight_one, random_diffeo
from .poisson import (CoordinateChart, Observable, bracket,
                      ddf_invariant_observable, finite_difference_gradient,
                      gradient, invariance_report, pohlmeyer_observable,
                      smeared_momentum_observable, smeared_position_observable,
                      virasoro_mode)
