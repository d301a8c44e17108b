"""Succinct range-minimum queries via compressed Cartesian trees.

The package bundles the bit-level primitives (rank/select vectors,
variable-cell arrays, piecewise-constant arrays), Cartesian-tree machinery,
an entropy-optimal whole-tree code, a one-tier tree-covering representation
with constant-time LCA, micro-tree type codecs, and the user-facing RMQ index.
"""

from .bits import BitVec, CompressedBitVec, PiecewiseConstantArray, VariableCellArray
from .trees import (
    BinaryTree,
    EntropyReport,
    build_cartesian,
    enumerate_shapes,
    model_entropy,
    sample_random_bst,
    shape_probability,
    subtree_entropy,
)
from .treecode import TreeCode, decode_tree, encode_hybrid, encode_subtree_size, encode_zaks
from .cover import Decomposition, TauName, TreeCover, build_cover, decompose, verify_decomposition
from .lcp import LcpData
from .microcodec import TypeArray, encode_types
from .rmq import OracleRmq, RmqIndex, adversarial_arrays

__all__ = [
    "LcpData",
    "TypeArray",
    "adversarial_arrays",
    "encode_types",
    "BitVec",
    "CompressedBitVec",
    "PiecewiseConstantArray",
    "VariableCellArray",
    "BinaryTree",
    "EntropyReport",
    "build_cartesian",
    "enumerate_shapes",
    "model_entropy",
    "sample_random_bst",
    "shape_probability",
    "subtree_entropy",
    "TreeCode",
    "decode_tree",
    "encode_hybrid",
    "encode_subtree_size",
    "encode_zaks",
    "Decomposition",
    "TauName",
    "TreeCover",
    "build_cover",
    "decompose",
    "verify_decomposition",
    "OracleRmq",
    "RmqIndex",
]

__version__ = "0.1.0"
