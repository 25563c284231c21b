"""treerecon: 3D tree point-cloud reconstruction from an orthophoto and a DSM.

Synthesizes procedural ground-truth trees, renders hard sensor targets,
and recovers point clouds by Adam optimization of differentiable
silhouette / shadow / DSM losses plus geometric (Chamfer) supervision.
"""

from .core import (
    CLASS_FOLIAGE,
    CLASS_TRUNK,
    Grid,
    GridSpec,
    PointCloud,
    RgbGrid,
    Rng,
    SunConfig,
    sun_direction,
    world_to_pixel,
)
from .diffrender import (
    SoftConfig,
    soft_dsm,
    soft_dsm_backward,
    soft_shadow,
    soft_shadow_backward,
    soft_silhouette,
    soft_silhouette_backward,
)
from .io_formats import Scene
from .losses import LossTargets, LossWeights, chamfer, combined_loss, raster_l2
from .metrics import eval_chamfer, fscore
from .protree import (
    SceneConfig,
    Skeleton,
    TreeParamRanges,
    TreeParams,
    generate_scene,
    grow_skeleton,
    sample_cloud,
    sample_params,
)
from .reconstruct import (
    OptimConfig,
    ReconResult,
    adam_step,
    baseline_extrude,
    derive_targets,
    init_cloud,
    reconstruct,
)
from .sensor import (
    project_to_ground,
    render_dsm,
    render_ortho,
    render_shadow_hard,
    render_silhouette,
)

__version__ = "0.1.0"
