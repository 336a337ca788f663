"""Orientation trajectory learning, via-point adaptation and fusion on SO(3).

Demonstrated orientation trajectories are projected into the angle-axis chart
of an auxiliary frame, encoded with a Gaussian mixture, reproduced and adapted
by kernelized regression, and multiple locally-constrained reproductions are
blended by a continuity-preserving weighted rotation average.
"""

from .errors import (
    ChartBoundaryError,
    ConfigError,
    DegenerateData,
    DomainOverlap,
    FactorizationFailure,
    InconsistentTiming,
    IoError,
    NotARotation,
    OrifuseError,
    ParseError,
    SeriesTooShort,
)
from .so3 import (
    exp_map,
    finite_difference_velocity,
    geodesic_distance,
    is_rotation,
    log_map,
    orthonormalize,
    project_to_frame,
    recover_orientation,
)
from .gmm import (
    Demonstration,
    GaussianMixture,
    ProjectedDemonstration,
    ReferenceTrajectory,
    extract_reference,
    fit_gmm,
    gmr_condition,
    project_demonstrations,
)
from .kmp import (
    KernelConfig,
    KmpModel,
    OrientationTrajectory,
    ViaPointSpec,
    augment_for_acceleration,
    build_model,
    extend_reference,
    reproduce_orientation_trajectory,
    transform_via_point,
)
from .rotavg import (
    FusionState,
    WeightedPair,
    init_fusion_state,
    weighted_average_memory,
)
from .fusion import (
    IovpSpec,
    WeightCurveSet,
    acceleration_cost,
    axis_alignment_error,
    build_component_trajectories,
    continuity_stats,
    fuse,
)
from .pipeline import PipelineResult, reproduce_with_via_points

__version__ = "0.1.0"
