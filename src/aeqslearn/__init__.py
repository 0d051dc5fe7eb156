"""Exact simulation and quantum-search training of machine-generated adiabatic systems."""

from .aeqs import (AdiabaticReport, AeqsInstance, Verdict, accepts,
                   adiabatic_time_bound, ground_state, h_fin, h_ini,
                   interpolate, solves)
from .errors import AeqsError
from .gates import (DEFAULT_GRID, SYMBOLS, DesignTuple, GateParams,
                    MachineEncoding, SymbolDesign, canonical_text, cnot_matrix,
                    deserialize, design_unitary, is_admissible, lifted_unitary,
                    serialize, single_qubit_unitary, symbol_unitary,
                    walsh_hadamard)
from .learner import (JointLearningState, LearnReport, MachinePool, PoolConfig,
                      brute_force_optimum, build_joint_state, enumerate_pool,
                      finalize_preparation, first_algorithm, pool_size,
                      sample_encoding, second_algorithm, verify_condition_star)
from .qcore import (Eigensystem, HermitianOperator, StateVector,
                    UnitaryOperator, basis_state, dis, epsilon_close,
                    equal_up_to_global_phase, hermitian_eigensystem, phase_distance,
                    sample_basis, spectral_gap, states_equal,
                    subspace_probability, tensor)
from .qqaf import (VERDICT_TOL, AgreementParams, Machine, RelationTable,
                   acceptance_probability, agreement_count, agreement_table,
                   agreement_vector, agrees, all_inputs, bits_to_index,
                   e_operator, index_to_bits, meets_threshold, run)
from .qsub import (EstimationResult, GoodSubspace, PreparationOperator,
                   QueryCounter, amplitude_amplify, amplitude_estimation,
                   counting_cdf, estimation_distribution,
                   find_maximum, grover_iterate, phase_distribution, qft,
                   quantum_count, sample_estimation)
from .relations import BUILTIN_RELATIONS, parse_relation

__version__ = "0.1.0"

from .cli import RunConfig, RunRecord, execute  # noqa: E402  (needs __version__)
