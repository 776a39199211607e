"""Decision-level fruit reachability with label-efficient active learning.

The package couples a closed-form kinematic feasibility oracle for a 5-DOF
harvesting arm with an RGB-D perception pipeline, a from-scratch random
forest, and a pool-based active-learning loop, plus an experiment harness
that sweeps query strategies across seeds.
"""

from .active import (
    ALConfig,
    RoundLog,
    run_loop,
    score_qbc,
    score_uncertainty,
    select_batch,
)
from .config import AppConfig, default_config, load_config
from .dataset import (
    Detections,
    LabeledRows,
    LabeledSample,
    PoolSplit,
    SceneConfig,
    generate_scene,
    ingest_detections,
    label_with_oracle,
    make_splits,
)
from .errors import ConfigError, IngestionError, ReachALError
from .features import feature_rows
from .forest import ForestModel, TrainConfig, fit_arrays, predict_proba_matrix
from .kinematics import (
    ArmPoint,
    BruteForceOracle,
    JointConfig,
    ManipulatorParams,
    forward_kinematics,
    sample_envelope,
    solve_ik,
)
from .metrics import MetricSet, evaluate, roc_auc
from .perception import CameraIntrinsics, Extrinsics, locate_detections
from .report import ExperimentGrid, run_grid

__version__ = "0.1.0"
