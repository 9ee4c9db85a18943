"""vlab: harmonic analysis workbench on truncated bounded Vilenkin groups.

Characters and fast mixed-radix transforms, Dirichlet kernels, Norlund and
logarithmic means, L_p / weak-L_p / Hardy quasi-norms, weighted maximal
operators, and an exactly verifiable divergence construction, all at desk
scale with a deterministic CLI harness.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityExceeded,
    ConfigError,
    DegenerateInput,
    DepthTooSmall,
    IndexOutOfRange,
    InvalidExponent,
    InvalidWeight,
    RadixTooSmall,
    RankOutOfRange,
    ResolutionMismatch,
    VilenkinError,
    ZeroTotalWeight,
)
from .group_core import (
    RadixSequence,
    build_radix,
    decompose,
    truncate,
)
from .step_functions import (
    StepFunction,
    hardy_quasinorm,
    load_step_function,
    lp_quasinorm,
    maximal_function,
    weak_lp_quasinorm,
)
from .transform import (
    CoefficientVector,
    OpCount,
    dirichlet_closed_MN,
    dirichlet_kernel,
    forward_fast,
    forward_naive,
    inverse,
    partial_sum,
    vilenkin_char,
)
from .means import (
    WeightSequence,
    harmonic_l,
    log_mean,
    log_weights,
    norlund_mean,
    ones_weights,
)
from .operators import (
    Atom,
    WeightFunction,
    condition6_advisory,
    critical_power_weight,
    domination_check,
    log_weight,
    make_atom,
    power_weight,
    weighted_maximal,
)
from .counterexample import (
    CounterexampleCase,
    build_case,
    divergence_sweep,
    l_mean_identity,
    theta_bracket,
    verify_hardy_bound,
    verify_partial_sums,
)
from .report import ExperimentReport
