"""Independent references, and the checks that compare results with them.

Nothing here runs the compiler. References come from scipy, numpy or the
dense oracle `dense_eval`, which evaluates the index notation with plain
nested loops; program results are read straight from their packed arrays.
Every check is an explicit comparison that raises `Mismatch`, so the checks
still run under `python -O`.
"""

import hashlib

import numpy as np
import scipy.sparse

from sparsec.encoding import DENSE
from sparsec.oracle import dense_eval
from sparsec.storage import DenseTensor, SparseStorage


class Mismatch(Exception):
    """A result, or a reference, disagrees with what it is checked against."""


# ----------------------------------------------------------------------------
# Reading program results


def result_array(result, declared) -> np.ndarray:
    """Dense numpy copy of a result whose declared type is `declared`."""
    if isinstance(result, DenseTensor):
        if declared.is_sparse:
            raise Mismatch("dense result for a format-annotated output")
        return np.asarray(result.data, dtype=float).reshape(result.shape)
    if not isinstance(result, SparseStorage):
        raise Mismatch(f"unexpected result type {type(result).__name__}")
    if result.ttype != declared:
        raise Mismatch(f"result stored as {result.ttype}, declared {declared}")
    return _storage_array(result)


def _storage_array(storage) -> np.ndarray:
    # Walk the levels breadth-first: `pos` holds every stored position of
    # the current level, `coords` the storage coordinates that lead to it.
    enc = storage.ttype.encoding
    shape = storage.ttype.shape
    dims = [enc.ordering.index(level) for level in range(len(shape))]
    pos = np.zeros(1, dtype=np.int64)
    coords = []
    for level, dim in enumerate(dims):
        extent = shape[dim]
        if enc.levels[level] is DENSE:
            coords = [np.repeat(c, extent) for c in coords]
            coords.append(np.tile(np.arange(extent), pos.size))
            pos = (pos[:, None] * extent + np.arange(extent)).ravel()
            continue
        ptrs = np.asarray(storage.pointers[level], dtype=np.int64)
        idxs = np.asarray(storage.indices[level], dtype=np.int64)
        if ptrs.size != pos.size + 1 or ptrs[0] != 0 or ptrs[-1] != idxs.size:
            raise Mismatch(f"level {level}: pointers do not delimit the indices")
        counts = ptrs[pos + 1] - ptrs[pos]
        if np.any(counts < 0):
            raise Mismatch(f"level {level}: pointers decrease")
        starts = np.repeat(ptrs[pos] - (np.cumsum(counts) - counts), counts)
        pos = starts + np.arange(counts.sum())
        coords = [np.repeat(c, counts) for c in coords]
        coords.append(idxs[pos])
    values = np.asarray(storage.values, dtype=float)
    if values.size != pos.size:
        raise Mismatch(f"{values.size} values for {pos.size} stored positions")
    logical = [None] * len(shape)
    for level, dim in enumerate(dims):
        c = coords[level]
        if c.size and (c.min() < 0 or c.max() >= shape[dim]):
            raise Mismatch(f"level {level}: index outside extent {shape[dim]}")
        logical[dim] = c
    flat = np.ravel_multi_index(logical, shape)
    if np.unique(flat).size != flat.size:
        raise Mismatch("a coordinate is stored twice")
    out = np.zeros(shape)
    out[tuple(logical)] = values[pos]
    return out


def compare(got: np.ndarray, want: np.ndarray, rtol: float) -> None:
    """Raise Mismatch unless `got` equals `want` within relative `rtol`."""
    if got.shape != want.shape:
        raise Mismatch(f"shape {got.shape}, expected {want.shape}")
    if rtol == 0.0:
        ok = np.array_equal(got, want)
    else:
        scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
        ok = bool(np.all(np.abs(got - want) <= rtol * scale))
    if not ok:
        worst = np.unravel_index(np.argmax(np.abs(got - want)), got.shape) if got.size else ()
        raise Mismatch(f"value at {worst}: {got[worst]!r}, expected {want[worst]!r}")


def checksum(array: np.ndarray) -> str:
    """The search report's content hash, computed from a dense array.

    Same text as the CLI's result checksum (sorted nonzero coordinates and
    the repr of each value), written out again here so the reference shares
    no code with the program.
    """
    text = ";".join(
        f"{tuple(int(c) for c in idx)}:{float(array[tuple(idx)])!r}"
        for idx in np.argwhere(array != 0.0)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------------
# References


def spmspm_reference(a, b) -> np.ndarray:
    """A @ B by scipy's sparse product."""
    sa = scipy.sparse.csr_matrix((a.vals, (a.rows, a.cols)), shape=a.shape)
    sb = scipy.sparse.csr_matrix((b.vals, (b.rows, b.cols)), shape=b.shape)
    return (sa @ sb).toarray()


def spmv_reference(a, v: np.ndarray) -> np.ndarray:
    """A @ v, summed per row by numpy."""
    return np.bincount(a.rows, weights=a.vals * v[a.cols], minlength=a.shape[0])


def ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B with each sum accumulated from 0.0 in ascending k.

    The search compares results bit for bit through their checksum, so this
    reference fixes the summation order that the program and `dense_eval`
    both use, rather than leave it to BLAS.
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def oracle(kernel, dense_inputs: dict) -> np.ndarray:
    """`dense_eval` on numpy inputs, returned as a numpy array."""
    bound = {
        name: DenseTensor(arr.shape, arr.ravel().tolist()) for name, arr in dense_inputs.items()
    }
    got = dense_eval(kernel, bound)
    return np.asarray(got.data, dtype=float).reshape(got.shape)
