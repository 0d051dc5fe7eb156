"""Exact simulation and quantum-search training of machine-generated adiabatic systems."""

from .aeqs import (AdiabaticReport, AeqsInstance, Verdict, accepts,
                   adiabatic_time_bound, ground_state, h_fin, h_ini,
                   interpolate, solves)
from .errors import AeqsError
from .gates import (DEFAULT_GRID, SYMBOLS, DesignTuple, GateParams,
                    MachineEncoding, SymbolDesign, canonical_text, cnot_matrix,
                    deserialize, design_unitary, lifted_unitary, serialize,
                    single_qubit_unitary, symbol_unitary, walsh_hadamard)
from .learner import (LearnReport, MachinePool, PoolConfig, brute_force_optimum,
                      enumerate_pool, first_algorithm, pool_size,
                      prepared_weights, sample_encoding, second_algorithm,
                      verify_condition_star)
from .qcore import (HermitianOperator, StateVector, UnitaryOperator,
                    eigenvalue_gap, epsilon_close, phase_distance, spectral_gap,
                    subspace_probability)
from .qqaf import (VERDICT_TOL, AgreementParams, Machine, RelationTable,
                   all_inputs, bits_to_index, e_operator, index_to_bits,
                   meets_threshold, run)
from .qsub import (EstimationResult, QueryCounter, amplified_good_probability,
                   amplified_marginal, counting_cdf, estimation_cdf,
                   estimation_outcomes, find_maximum, good_angle,
                   phase_distribution, sample_amplified, sample_estimation)
from .relations import BUILTIN_RELATIONS, parse_relation

__version__ = "0.1.0"

from .cli import RunConfig, RunRecord, execute  # noqa: E402  (needs __version__)
