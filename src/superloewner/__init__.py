"""Schramm-Loewner evolution with osp(1|2) internal symmetry.

Exact verification layer (structure tables, Grassmann algebra, truncated
affine modules, annihilator and null-vector checks) plus a stochastic
simulation layer (Euler-Maruyama flow, represented-state assembly,
Monte Carlo martingale harness).
"""

from .scalars import COMPLEX, EXACT, Cyclo8, rational
from .grassmann import GrassRing, GrassmannScalar, berezin
from .superalgebra import (AlgebraElement, CriticalLevelError,
                           DegeneratePairingError, StructureData, bracket,
                           dual_basis, form, orthonormal_even_basis,
                           standard_basis, standard_dual_basis,
                           structure_constants)
from .series import (AutSeries, ExpSeries, SeriesOrderError, TailSeries,
                     aut_compose, series_derive, series_exp, series_inv_aut,
                     series_mul, substitute)
from .affine import (DepthOverflowError, Module, Vector, act_mode, act_word,
                     annihilator_apply, expectation, mode, sugawara)
from .nullscan import (candidate_psi, condition_one, condition_two,
                       direct_residuals, null_conditions)
from .evolution import (FlowState, aut_to_virasoro, assemble_state_vector,
                        flow_step, initial_state, loewner_step)
from .generator import ItoJet, JetRing, jet_state, state_drift
from .matrixrep import BatchAssembler, MatrixModule
from .observables import current_via_module, dual_words, observable_current
from .harness import (ConfigError, MartingaleReport, RunConfig, SimResult,
                      martingale_seed_suite, martingale_test,
                      parse_config_file, simulate)

__version__ = "0.1.0"
