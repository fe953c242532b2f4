"""Compressed bitmap index engine (systems S1-S7 of DESIGN.md).

This package is the substrate everything else in :mod:`repro` stands on:
WAH bitvectors with the paper's exact word layout, the single-scan in-situ
builder of Algorithm 1, compressed bitwise operations, binning strategies,
single- and multi-level indices, Z-order layout, and the on-disk format.
"""

from repro.bitmap.adaptive import (
    AdaptivePrecisionIndexer,
    align_indices,
    aligned_metric,
    pad_index,
    union_binning,
)
from repro.bitmap.bbc import (
    BBCBitVector,
    bbc_and_count,
    bbc_logical_op,
    wah_to_bbc,
)
from repro.bitmap.binning import (
    Binning,
    DistinctValueBinning,
    EqualWidthBinning,
    ExplicitBinning,
    PrecisionBinning,
    common_binning,
)
from repro.bitmap.builder import (
    OnlineBitmapBuilder,
    build_bitvectors,
    build_bitvectors_batch,
    build_bitvectors_parallel,
    concatenate_bitvectors,
    splice_bitvectors,
)
from repro.bitmap.codec import (
    CODECS,
    Codec,
    codec_for_name,
    codec_for_tag,
    select_codec,
)
from repro.bitmap.index import BitmapIndex, LevelSpec, MultiLevelBitmapIndex
from repro.bitmap.kernels import (
    auto_count_many,
    auto_op_many,
    logical_accumulate,
    stack_groups,
)
from repro.bitmap.ordering import (
    ORDERING_METHODS,
    RowOrdering,
    compute_ordering,
    gray_code_ordering,
    histogram_aware_ordering,
    lexicographic_ordering,
    orderings_compatible,
)
from repro.bitmap.range_index import RangeBitmapIndex
from repro.bitmap.roaring import RoaringBitVector
from repro.bitmap.ops import logical_not, logical_op_streaming, prefers_runmerge
from repro.bitmap.serialization import (
    LazyBitmapIndex,
    index_from_bytes,
    index_to_bytes,
    load_index,
    save_index,
    serialized_size,
)
from repro.bitmap.units import (
    n_units,
    unit_popcounts,
    unit_popcounts_groups,
    unit_sizes,
)
from repro.bitmap.wah import WAHBitVector, compress_groups, decompress_words
from repro.bitmap.zorder import (
    ZOrderLayout,
    morton_decode_2d,
    morton_decode_3d,
    morton_encode_2d,
    morton_encode_3d,
    suggested_unit_cells,
)

__all__ = [
    "AdaptivePrecisionIndexer",
    "align_indices",
    "aligned_metric",
    "pad_index",
    "union_binning",
    "BBCBitVector",
    "bbc_and_count",
    "bbc_logical_op",
    "wah_to_bbc",
    "n_units",
    "unit_popcounts",
    "unit_popcounts_groups",
    "unit_sizes",
    "Binning",
    "DistinctValueBinning",
    "EqualWidthBinning",
    "ExplicitBinning",
    "PrecisionBinning",
    "common_binning",
    "OnlineBitmapBuilder",
    "build_bitvectors",
    "build_bitvectors_batch",
    "build_bitvectors_parallel",
    "concatenate_bitvectors",
    "splice_bitvectors",
    "CODECS",
    "Codec",
    "codec_for_name",
    "codec_for_tag",
    "select_codec",
    "BitmapIndex",
    "ORDERING_METHODS",
    "RowOrdering",
    "compute_ordering",
    "gray_code_ordering",
    "histogram_aware_ordering",
    "lexicographic_ordering",
    "orderings_compatible",
    "RangeBitmapIndex",
    "RoaringBitVector",
    "LevelSpec",
    "MultiLevelBitmapIndex",
    "auto_count_many",
    "auto_op_many",
    "logical_accumulate",
    "stack_groups",
    "prefers_runmerge",
    "logical_not",
    "logical_op_streaming",
    "LazyBitmapIndex",
    "index_from_bytes",
    "index_to_bytes",
    "load_index",
    "save_index",
    "serialized_size",
    "WAHBitVector",
    "compress_groups",
    "decompress_words",
    "ZOrderLayout",
    "morton_decode_2d",
    "morton_decode_3d",
    "morton_encode_2d",
    "morton_encode_3d",
    "suggested_unit_cells",
]
