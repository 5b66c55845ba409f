"""ultron: temporal compression for triangle-mesh sequences whose topology
may change between frames.

Frames are tracked and non-rigidly deformed from keyframes; frames whose
deformation passes a quality gate share the keyframe's connectivity and are
compressed jointly (connectivity coded once, vertex streams quantized,
delta-coded over time, and entropy-coded with rANS).
"""

__version__ = "0.1.0"

from . import codec, errors, mesh, synth
from .mesh import Aabb, Mesh, load_mesh, parse_mesh, save_mesh, serialize_mesh
from .tracking import CorrespondenceSet, match_frames
from .registration import (
    AffineField,
    RegistrationConfig,
    RegistrationReport,
    register,
)
from .pipeline import (
    PipelineStats,
    QualityReport,
    QualityThresholds,
    Segment,
    assess_quality,
    run_pipeline,
)
from .codec import (
    QuantizationParams,
    decode_container,
    encode_container,
)

__all__ = [
    "__version__", "codec", "errors", "mesh", "synth",
    "Aabb", "Mesh", "load_mesh", "parse_mesh", "save_mesh", "serialize_mesh",
    "CorrespondenceSet", "match_frames",
    "AffineField", "RegistrationConfig", "RegistrationReport", "register",
    "PipelineStats", "QualityReport", "QualityThresholds", "Segment",
    "assess_quality", "run_pipeline",
    "QuantizationParams", "decode_container", "encode_container",
]
