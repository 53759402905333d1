"""Reference evaluation and input generation.

`dense_eval` is the correctness oracle: plain nested Python loops over
every index variable, reading the index notation directly, with no
sparsity logic and no code shared with the compiler or interpreter.
Agreement between `run_kernel` and `dense_eval` is therefore evidence,
not tautology. Keep it that way: this module must not import lattice,
codegen, or engine.

Generators produce deterministic seeded inputs; values avoid exact zeros
so nonzero counts stay unambiguous.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .expr import Access, Add, Const, Kernel, Mul, Neg, Sub, analyze_reductions, nesting_guard
from .storage import CooTensor, DenseTensor, _check_budget


def dense_eval(kernel: Kernel, inputs: dict) -> DenseTensor:
    """Evaluate a kernel over dense inputs by exhaustive nested loops.

    Reduction variables are summed over the smallest subexpression that
    captures all their uses. Inputs are DenseTensor per referenced tensor;
    accumulation seeds the output from its binding when present. An output
    past the element budget raises DenseOutputTooLarge before it is
    allocated. The loops walk the expression recursively, so one nested
    past Python's recursion limit raises NestingTooDeep.
    """
    with nesting_guard(kernel, "the dense oracle"):
        return _dense_eval(kernel, inputs)


def _dense_eval(kernel: Kernel, inputs: dict) -> DenseTensor:
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    an = kernel.analysis
    for name, ttype in kernel.tensors.items():
        if name in inputs and inputs[name].shape != ttype.shape:
            raise ShapeMismatch(
                f"tensor {name!r} declared {ttype.shape}, bound {inputs[name].shape}"
            )

    data = {name: inputs[name].data.tolist() for name in kernel.tensors if name in inputs}

    def _raw(node, path, env):
        reduced = an.node_reductions.get(path)
        if reduced:
            total = 0.0
            extents = [range(an.var_extents[v]) for v in reduced]
            for combo in itertools.product(*extents):
                for v, i in zip(reduced, combo):
                    env[v] = i
                total += _plain(node, path, env)
            for v in reduced:
                del env[v]
            return total
        return _plain(node, path, env)

    def _plain(node, path, env):
        if isinstance(node, Access):
            coords = [env[v] for v in node.indices]
            return data[node.tensor][inputs[node.tensor].offset(coords)]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Neg):
            return -_raw(node.operand, path + (0,), env)
        a = _raw(node.lhs, path + (0,), env)
        b = _raw(node.rhs, path + (1,), env)
        if isinstance(node, Add):
            return a + b
        if isinstance(node, Sub):
            return a - b
        if isinstance(node, Mul):
            return a * b
        raise AssertionError(f"unknown node {node!r}")

    out_shape = kernel.output_type.shape
    _check_budget(math.prod(out_shape), f"dense_eval output of shape {out_shape}")
    if kernel.accumulate and kernel.lhs.tensor in inputs:
        out = inputs[kernel.lhs.tensor].data.tolist()
    else:
        out = [0.0] * math.prod(out_shape)
    free = kernel.lhs.indices  # distinct, so the combos run in row-major order
    for off, combo in enumerate(itertools.product(*[range(an.var_extents[v]) for v in free])):
        out[off] += _raw(kernel.rhs, (), dict(zip(free, combo)))
    return DenseTensor(out_shape, out)


# ----------------------------------------------------------------------------
# Generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic input description.

    kind: one of "uniform" (each coordinate kept with probability
    `density`), "rowband" (`dense_rows` fully dense rows at random
    positions), or "identity". An unknown kind, a density outside [0, 1],
    a negative row count or a negative seed is a ValueError; a row band
    that is not a matrix, or has more dense rows than rows, and an
    identity of rank 0, a ShapeMismatch.
    """

    shape: tuple
    kind: str
    density: float = 0.0
    seed: int = 0
    dense_rows: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "rowband", "identity"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "uniform" and not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density {self.density} outside [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        if self.kind == "identity" and not self.shape:
            raise ShapeMismatch("identity generates tensors of rank 1 or more")
        if self.kind == "rowband":
            if len(self.shape) != 2:
                raise ShapeMismatch("rowband generates matrices only")
            if self.dense_rows < 0:
                raise ValueError(f"dense_rows {self.dense_rows} is negative")
            if self.dense_rows > self.shape[0]:
                raise ShapeMismatch(
                    f"{self.dense_rows} dense rows exceed {self.shape[0]} rows"
                )


def generate(spec: GeneratorSpec) -> CooTensor:
    """Materialize a generator spec; identical spec gives identical output.
    A spec that would draw more values than the element budget raises
    DenseOutputTooLarge before anything is allocated."""
    if spec.kind == "rowband":
        count = spec.dense_rows * spec.shape[1]
    else:
        count = (min if spec.kind == "identity" else math.prod)(spec.shape)
    _check_budget(count, f"{spec.kind} input of shape {spec.shape}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "identity":
        columns = [np.arange(count)] * len(spec.shape)
        return CooTensor.from_arrays(spec.shape, columns, np.ones(count))
    if spec.kind == "uniform":
        flat = np.flatnonzero(rng.random(count) < spec.density)
        values = 1.0 - rng.random(flat.size)  # uniform in (0, 1]
        return CooTensor.from_arrays(spec.shape, np.unravel_index(flat, spec.shape), values)
    rows, cols = spec.shape
    picked = np.sort(rng.choice(rows, size=spec.dense_rows, replace=False))
    values = 1.0 - rng.random(count)
    columns = [np.repeat(picked, cols), np.tile(np.arange(cols), spec.dense_rows)]
    return CooTensor.from_arrays(spec.shape, columns, values)


def density(tensor) -> float:
    """Fraction of structurally nonzero values; explicit zeros excluded."""
    volume = math.prod(tensor.shape)
    return np.count_nonzero(tensor.arrays()[1]) / volume if volume else 0.0
