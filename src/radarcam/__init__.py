"""Geometry, depth-supervision, view-transformation and fusion math for
4D-radar/camera bird's-eye-view perception, with a synthetic validation
harness and a file-based CLI.
"""

__version__ = "0.1.0"

from .geometry import (
    AngularResolution,
    BehindCameraError,
    CameraIntrinsics,
    RigidTransform,
    SensorCalibration,
    empirical_projection_error,
    max_pixel_position_error,
    project_to_pixel,
    scale_intrinsics,
    spherical_to_camera,
)
from .depth_supervision import (
    DepthBinSpec,
    DepthTarget,
    LossConfig,
    RadarPoint,
    RadiusConfig,
    build_depth_targets,
    nearest_bin,
    neighborhood_radius,
    one_to_many_loss,
    one_to_many_loss_grad,
)
from .tensor_ops import (
    Conv2DParams,
    LinearParams,
    MLPParams,
    ShapeError,
    conv2d,
    mlp,
    sigmoid,
    softmax,
)
from .view_transform import (
    DepthDistributionMap,
    VTParams,
    VoxelGridSpec,
    depth_distribution,
    occupancy_from_bev,
    sample_vt,
    voxel_centers,
)
from .fusion import (
    CSAFusionParams,
    ConcatFusionParams,
    channel_attention,
    concat_fusion,
    csa_fusion,
    spatial_attention,
)
from .sim import (
    ExperimentConfig,
    RadarNoiseModel,
    Scene,
    SceneExtents,
    SupervisionMetrics,
    evaluate_supervision,
    generate_scene,
    run_experiment,
    simulate_radar,
)
from . import lxlt
