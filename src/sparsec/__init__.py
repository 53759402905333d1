"""sparsec: a self-contained sparse tensor algebra compiler and runtime.

Kernels are written in a sparsity-agnostic index notation; per-tensor
format annotations choose dense or compressed storage per dimension, a
dimension ordering, and overhead bit widths. The compiler orders loops via
an iteration graph, builds merge lattices per index variable, lowers to an
explicit loop IR, and runs that IR over packed storage as whole-array
numpy passes.
"""

from .encoding import (
    COMPRESSED,
    DENSE,
    Encoding,
    LevelType,
    TensorType,
    csc,
    csr,
    dcsc,
    dcsr,
    enumerate_encodings,
    format_space_size,
    make_encoding,
)
from .engine import convert, interpret, run_kernel
from .errors import SparsecError
from .expr import analyze_reductions, parse_kernel, split_for_whole_expr_reduction
from .oracle import GeneratorSpec, dense_eval, density, generate
from .storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    pack,
)
from .tensor_io import read_dense_literal, read_sparse_literal, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "COMPRESSED",
    "DENSE",
    "CooTensor",
    "DenseTensor",
    "Encoding",
    "GeneratorSpec",
    "LevelType",
    "SparseStorage",
    "SparsecError",
    "TensorType",
    "analyze_reductions",
    "convert",
    "csc",
    "csr",
    "dcsc",
    "dcsr",
    "dense_eval",
    "density",
    "enumerate_encodings",
    "format_space_size",
    "generate",
    "interpret",
    "make_encoding",
    "pack",
    "parse_kernel",
    "read_dense_literal",
    "read_sparse_literal",
    "read_tensor",
    "run_kernel",
    "split_for_whole_expr_reduction",
    "write_tensor",
]
