"""cgadyn: the compact genetic algorithm and its expected-update flow.

The package has five parts:

* :mod:`cgadyn.landscape` -- fitness functions over bitstrings, injectivity
  checking, and the brute-force local-maxima oracle;
* :mod:`cgadyn.cga` -- the stochastic algorithm itself, trajectory
  recording, and the step-function time embedding;
* :mod:`cgadyn.drift_field` -- exact tournament distributions, the
  expected-update field f(p), and its Jacobians;
* :mod:`cgadyn.ode` -- fixed-step integration of dX/dt = f(X) and limit
  detection;
* :mod:`cgadyn.harness` -- reproducible campaigns (Monte Carlo tallies,
  learning-step sweeps, corner stability reports built from the corner
  spectra) plus the `cgadyn` CLI in :mod:`cgadyn.cli`.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    HorizonError,
    TheoremScopeError,
)
from .landscape import (
    ENUMERATION_CAP,
    FitnessSpec,
    LocalMaxReport,
    binval,
    bits_to_index,
    bits_to_string,
    enumerate_local_maxima,
    evaluate,
    fitness_values,
    index_to_bits,
    is_injective,
    linear,
    perturbed_onemax,
    random_injective,
    spec_from_json_dict,
    spec_to_json_dict,
    string_to_bits,
    table_spec,
)
from .cga import (
    StochasticTrajectory,
    default_max_iters,
    run,
    run_many,
    trajectory_to_jsonl,
)
from .drift_field import (
    drift,
    drift_naive,
    jacobian_analytic,
    jacobian_numeric,
    loser_probs,
    sampling_probs,
    winner_probs,
)
from .ode import (
    OdeTrajectory,
    find_limit_many,
    integrate,
    lyapunov_increments,
    ode_to_jsonl,
    sup_distance,
)
from .harness import (
    AlphaSweepRow,
    CampaignResult,
    ClassificationReport,
    ExperimentConfig,
    SettingResult,
    alpha_sweep,
    classify_all,
    monte_carlo,
)
