from .quantization import (
    QuantizationParams,
    dequantize_array,
    half_step,
    quantize_array,
    widen_to_f32,
)
from .rans import build_frequency_table, decode_block, encode_block
from .connectivity import (
    decode_connectivity,
    encode_connectivity,
    unzigzag,
    zigzag,
)
from .segments import (
    FLAG_COLORS,
    FLAG_NORMALS,
    FLAG_STORED_NORMALS,
    FLAG_UV,
    decode_segment,
    encode_segment,
    segment_flags,
)
from .container import (
    MAGIC,
    VERSION,
    container_frames,
    decode_container,
    encode_container,
)

__all__ = [
    "QuantizationParams", "dequantize_array", "half_step", "quantize_array",
    "widen_to_f32",
    "build_frequency_table", "decode_block", "encode_block",
    "decode_connectivity", "encode_connectivity", "unzigzag", "zigzag",
    "FLAG_COLORS", "FLAG_NORMALS", "FLAG_STORED_NORMALS", "FLAG_UV",
    "decode_segment", "encode_segment", "segment_flags",
    "MAGIC", "VERSION", "container_frames", "decode_container",
    "encode_container",
]
