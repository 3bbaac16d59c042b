"""Online regression under target drift.

A drift-aware last-step min-max learner (LASER), a robust H-infinity
regression filter, standard baselines (forward ridge / AAR, NLMS,
covariance-reset RLS), synthetic drifting-stream generators, and a
brute-force-plus-analytic verification suite that numerically certifies
every recursion and regret bound the learners rely on.
"""

from .baselines import (
    NlmsState,
    aar_init,
    aar_step,
    crrls_init,
    crrls_step,
    nlms_init,
    nlms_step,
)
from .datagen import (
    DatasetSpec,
    LabeledStream,
    gen_inputs,
    gen_stream,
    gen_truth,
    read_stream_csv,
    write_stream_csv,
)
from .harness import (
    BoundCheck,
    RunReport,
    SummaryRow,
    SweepResult,
    SweepSpec,
    aggregate,
    experiment,
    run_batch,
    run_learner,
    sweep,
)
from .hinf import HInfParams, hinf_filter_loss, hinf_init, hinf_step
from .laser import (
    CovState,
    LaserParams,
    laser_init,
    laser_min_cost,
    laser_predict,
    laser_trajectories,
    laser_trajectory,
    laser_update,
)
from .oracle import (
    BoundInputs,
    ComparatorSequence,
    DriftRegime,
    brute_min_cost,
    comparator_loss,
    cumloss_bound,
    drift_tuned_bound,
    eig_cap,
    eigenvalue_step_map,
    hinf_direct,
    laser_direct,
    logdet_bound_sides,
    regret_certificate_exact,
    regret_certificate_gap,
    tracking_cost,
    tuned_c,
    tuned_params,
)

__version__ = "0.1.0"
