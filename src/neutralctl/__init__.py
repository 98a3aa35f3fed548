"""Analysis toolkit for linear neutral delay systems with unit delay:
quasi-polynomial spectrum computation, controllability / stabilizability /
observability verdicts, stage-1 stabilizing synthesis, and method-of-steps
simulation.
"""

from .analysis import (
    CheckResult,
    Verdict,
    Witness,
    check_condition1,
    check_condition2,
    check_final_observability,
    check_null_controllability,
    check_stabilizability,
    verdict_to_dict,
)
from .linalg import (
    PlacementError,
    RankReport,
    Staircase,
    UnstabilizableMode,
    controllable_staircase,
    kalman_matrix,
    numerical_rank,
    pole_place_nonzero,
)
from .simulate import (
    DegenerateWindow,
    History,
    HistoryGridMismatch,
    StepNotUnitDivisor,
    Trajectory,
    estimate_decay,
    simulate,
    simulate_closed_loop,
    trajectory_to_csv,
)
from .spectrum import (
    ContourThroughZero,
    MaxDepthExceeded,
    QuadratureNotConverged,
    Root,
    SingularAtEvaluationPoint,
    SpectrumChain,
    SpectrumRegion,
    count_zeros,
    default_region,
    delta,
    delta_derivative,
    det_logderiv,
    find_roots,
    predict_chains,
    roots_to_csv,
    spectral_abscissa,
    spectral_right_bound,
)
from .synthesis import (
    Condition2Violated,
    StabilizationPlan,
    plan_to_dict,
    synthesize_stage1,
    verify_decay,
)
from .system import (
    DimensionError,
    FeedbackLaw,
    KernelSegment,
    NeutralSystem,
    NoOutputError,
    SystemFormatError,
    apply_feedback,
    load_system,
    parse_system,
    serialize_system,
    transpose_dual,
    zero_law,
)

__version__ = "0.1.0"
