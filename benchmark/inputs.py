"""Seeded inputs for the benchmark workloads.

Every input is drawn here from numpy and `random` alone, so the program
under test only ever receives finished tensors, and a change to its own
generators cannot change what is measured. The same seed gives the same
inputs, byte for byte.

Matrices carry an exact nonzero count (positions drawn without
replacement) rather than a per-coordinate coin flip, so two seeds differ
in where the nonzeros sit, not in how many there are; that keeps the work
per op, and so the timings, comparable across seeds.
"""

import random
from dataclasses import dataclass

import numpy as np

from sparsec.encoding import COMPRESSED, DENSE, make_encoding
from sparsec.storage import CooTensor


@dataclass(frozen=True)
class Matrix:
    """A seeded matrix as coordinate arrays, before it becomes a CooTensor."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def coo(self) -> CooTensor:
        entries = zip(zip(self.rows.tolist(), self.cols.tolist()), self.vals.tolist())
        return CooTensor(self.shape, entries)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def _values(rng, count) -> np.ndarray:
    return 1.0 - rng.random(count)  # uniform in (0, 1]: never an exact zero


def uniform_matrix(rng, shape, density) -> Matrix:
    """round(density * volume) nonzeros at distinct uniform positions."""
    volume = shape[0] * shape[1]
    flat = np.sort(rng.choice(volume, size=round(density * volume), replace=False))
    rows, cols = np.divmod(flat, shape[1])
    return Matrix(tuple(shape), rows, cols, _values(rng, flat.size))


def dense_matrix(rng, shape) -> Matrix:
    rows, cols = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
    return Matrix(tuple(shape), rows, cols, _values(rng, rows.size))


def rowband_matrix(rng, n, dense_rows) -> Matrix:
    """`dense_rows` fully dense rows at distinct random positions."""
    picked = np.sort(rng.choice(n, size=dense_rows, replace=False))
    rows = np.repeat(picked, n)
    cols = np.tile(np.arange(n), dense_rows)
    return Matrix((n, n), rows, cols, _values(rng, rows.size))


def dense_vector(rng, n) -> tuple:
    """(CooTensor, numpy array) of a vector with every entry nonzero."""
    vals = _values(rng, n)
    return CooTensor((n,), (((i,), v) for i, v in enumerate(vals.tolist()))), vals


# ----------------------------------------------------------------------------
# Random small kernels: the family the oracle-equivalence acceptance test
# draws from. Up to three operands of rank 1-3 over i, j, k with extents
# 2-8, random level types and orderings (or dense), `+ - *` between them,
# an optional constant factor and an optional negation. Variables missing
# from the output are reductions; scoped ones become temporaries.


def _random_encoding(rng, rank):
    if rng.random() < 0.4:
        return None
    levels = [rng.choice([DENSE, COMPRESSED]) for _ in range(rank)]
    ordering = list(range(rank))
    rng.shuffle(ordering)
    return make_encoding(levels, ordering)


def random_kernel(rng: random.Random, integer_data: bool) -> tuple:
    """One draw: (kernel text, {operand name: CooTensor})."""
    var_pool = ["i", "j", "k"]
    extents = {v: rng.randint(2, 8) for v in var_pool}
    operands = []
    for t in range(rng.randint(1, 3)):
        rank = rng.randint(1, 3)
        operands.append((f"T{t}", tuple(rng.sample(var_pool, rank))))
    used = sorted({v for _, use in operands for v in use})
    out_rank = rng.randint(0, min(3, len(used)))
    out_vars = tuple(rng.sample(used, out_rank))

    decls, bindings = [], {}
    for name, use in operands:
        shape = tuple(extents[v] for v in use)
        enc = _random_encoding(rng, len(use))
        fmt = f" {enc.describe()}" if enc else ""
        decls.append(f"tensor {name}({', '.join(str(e) for e in shape)}){fmt}")
        keep = rng.uniform(0.2, 0.8)
        entries = []
        for coords in np.ndindex(*shape):
            if rng.random() >= keep:
                continue
            value = float(rng.randint(1, 5)) if integer_data else rng.uniform(0.1, 2.0)
            entries.append((tuple(int(c) for c in coords), value))
        bindings[name] = CooTensor(shape, entries)

    out_shape = tuple(extents[v] for v in out_vars)
    out_enc = _random_encoding(rng, out_rank) if out_rank else None
    out_fmt = f" {out_enc.describe()}" if out_enc else ""
    decls.append(f"tensor out({', '.join(str(e) for e in out_shape)}){out_fmt}")

    terms = [f"{name}({', '.join(use)})" for name, use in operands]
    expr = terms[0]
    for term in terms[1:]:
        expr = f"{expr} {rng.choice(['+', '-', '*'])} {term}"
    if rng.random() < 0.25:
        expr = f"{expr} * {float(rng.randint(2, 3))!r}"
    if rng.random() < 0.15:
        expr = f"-({expr})"
    return "\n".join(decls) + f"\nout({', '.join(out_vars)}) = {expr}\n", bindings
