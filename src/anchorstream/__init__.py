"""Streaming motion codec for dynamic gaussian point sets.

A scene is a flat ordered sequence of gaussian primitives. Motion between
frames is carried by a small set of per-level anchor transforms: anchors are
picked by uniform-grid sampling, every primitive clusters to its L1-nearest
anchor per level, and its anchors move it level by level, coarse to fine. In
additive mode a primitive shifts by the sum of its anchors' translations; in
pivot mode each level rotates it about its anchor, then translates it. The
hierarchy is rebuilt periodically from the deformed geometry, with new
anchors inheriting deltas from their nearest predecessors. Serialized frames
carry no indices: both ends order anchors canonically by grid cell, so
streams stay compact and a mirroring decoder reproduces the encoder state
bit for bit.
"""

from .codec import (
    FramePayload,
    StreamHeader,
    decode_frame,
    encode_frame,
    plan_budget,
)
from .errors import (
    AnchorStreamError,
    BudgetError,
    ConfigError,
    DegenerateQuaternionError,
    NumericalError,
    PlyParseError,
    StreamFormatError,
)
from .fitting import Correspondences, densify_residuals, fit_frame, loss_and_gradient
from .hierarchy import (
    AnchorHierarchy,
    LevelStructure,
    assign_clusters,
    build_hierarchy,
    grid_resolution,
    rehierarchize,
    sample_anchors,
)
from .motion import (
    AnchorDeltaSet,
    FrameDeformation,
    apply_deformation,
    inherit_deformation,
)
from .ply_io import read_gaussian_ply, write_gaussian_ply
from .session import (
    Encoder,
    SessionResult,
    StaticSource,
    StorageReport,
    SyntheticSource,
    decode_session,
    encode_session,
    iter_decode_metrics,
    state_checksum,
    storage_report,
)
from .synth import (
    BodySpec,
    SceneSpec,
    drifting_pair_spec,
    generate_scene,
    load_scene_spec,
    two_body_arm_spec,
)
from .types import (
    CompositionMode,
    GaussianSet,
    Quantization,
    SceneState,
    StreamConfig,
    Violation,
    validate_state,
)

__version__ = "0.1.0"
