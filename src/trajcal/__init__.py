"""Spatio-temporal calibration of fixed roadside sensors by matching the
trajectories of objects both observe: no initial guess, no shared clock."""

from types import ModuleType as _ModuleType

from .errors import (
    BothZeroScore,
    CalibrationError,
    DegenerateGeometry,
    EmptyTrajectory,
    InsufficientOverlap,
    NoCandidateMatches,
    NoViableHypothesis,
    TooFewPairs,
)
from .estimator import (
    CorrespondenceSet,
    PairedTracks,
    SpatialSolution,
    estimate_time_offset_coarse,
    refine_time_offset,
    solve,
    solve_spatial,
)
from .evaluation import (
    MetricReport,
    SweepRow,
    SweepSummary,
    make_report,
    rte,
    run_sweep,
    summarize,
    toe,
)
from .features import (
    FeatureDatabase,
    extract_features,
    segment_velocities,
)
from .matching import (
    MatchWeights,
    PositionMatch,
    apply_semantic_filters,
    filter_bbox,
    filter_mutual_nn,
    filter_neighbor_count,
    filter_neighborhood_distribution,
    motion_match,
)
from .model import (
    CLASS_LABELS,
    Position,
    Trajectory,
    TrajectoryDatabase,
    Transform4D,
    blend_transforms,
    transform_database,
)
from .pipeline import (
    CalibrationSession,
    PipelineConfig,
    SessionStore,
    calibrate,
    derive_position_pairs,
    fuse_sessions,
    score_session,
    update_continuous,
)
from .simulator import (
    LAYOUTS,
    ScenarioConfig,
    WorldTrack,
    default_scenario,
    generate_world_tracks,
    make_nonoverlapping_pair,
    make_pair,
    observe,
    sensor_pose,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
