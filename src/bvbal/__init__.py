"""Minimax-optimal calibration of biased stochastic estimators.

The package is organized around one model: oracles whose samples carry a
bias of order delta**q1 and noise of order 1/delta**q2 in a perturbation
size delta.  `oracles` defines the samplers, `calibration` the
closed-form risk ratios and optimal weight schemes, `estimators` the
budgeted estimators and their risk predictions, `queueing` the M/M/1
transient testbed, `experiments` the paired Monte Carlo harness, and
`cli` the command-line front end.
"""

from .calibration import (
    FreeRecursiveOptimum,
    TiedRecursiveOptimum,
    WeightScheme,
    WeightSolution,
    XiMatrix,
    amrr_general,
    amrr_recursive_free,
    amrr_recursive_tied,
    brute_force_weights,
    eta_balance,
    feasible_intervals,
    optimal_weights,
    phi_sum,
    solve_a_star,
    solve_weights,
    xi_matrix,
    ztilde_squared,
)
from .errors import ConfigurationError, InfeasibleError
from .estimators import (
    DeltaSchedule,
    EstimatorRun,
    LinearPlan,
    RecursiveParams,
    averaged_estimate,
    baseline_estimate,
    chung_recursion_check,
    predict_mse_leading,
    recursive_estimate,
    weighted_estimate,
)
from .experiments import (
    EstimatorSetting,
    ExperimentConfig,
    ExperimentReport,
    QueueSetting,
    TableResult,
    adversarial_risk_grid,
    paired_risk_ratio,
    reproduce_table,
    run_experiment,
)
from .oracles import (
    BatchedFunction,
    BiasOrder,
    FiniteDifferenceOracle,
    StreamKey,
    SyntheticOracleSpec,
)
from .queueing import (
    MM1DerivativeOracle,
    MM1GradientOracleSP,
    QueueParams,
    TransientSample,
    mm1_transient_sample,
)

__version__ = "0.1.0"
