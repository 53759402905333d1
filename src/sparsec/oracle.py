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
from typing import Optional

import numpy as np

from .errors import ShapeMismatch
from .expr import Access, Add, Const, Kernel, Mul, Neg, Sub, analyze_reductions
from .storage import CooTensor, DenseTensor


def dense_eval(kernel: Kernel, inputs: dict) -> DenseTensor:
    """Evaluate a kernel over dense inputs by exhaustive nested loops.

    Reduction variables are summed over the smallest subexpression that
    captures all their uses. Inputs are DenseTensor per referenced tensor;
    accumulation seeds the output from its binding when present.
    """
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    an = kernel.analysis
    for name, ttype in kernel.tensors.items():
        if name in inputs and inputs[name].shape != ttype.shape:
            raise ShapeMismatch(
                f"tensor {name!r} declared {ttype.shape}, bound {inputs[name].shape}"
            )

    def evaluate(node, path, env):
        value = _raw(node, path, env)
        return value

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
            coords = tuple(env[v] for v in node.indices)
            return inputs[node.tensor].get(coords)
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Neg):
            return -evaluate(node.operand, path + (0,), env)
        a = evaluate(node.lhs, path + (0,), env)
        b = evaluate(node.rhs, path + (1,), env)
        if isinstance(node, Add):
            return a + b
        if isinstance(node, Sub):
            return a - b
        if isinstance(node, Mul):
            return a * b
        raise AssertionError(f"unknown node {node!r}")

    out_shape = kernel.output_type.shape
    if kernel.accumulate and kernel.lhs.tensor in inputs:
        out = DenseTensor(out_shape, list(inputs[kernel.lhs.tensor].data))
    else:
        out = DenseTensor.zeros(out_shape)
    free = kernel.lhs.indices
    for combo in itertools.product(*[range(an.var_extents[v]) for v in free]):
        env = dict(zip(free, combo))
        value = evaluate(kernel.rhs, (), env)
        coords = tuple(env[v] for v in free)
        out.set(coords, out.get(coords) + value)
    return out


# ----------------------------------------------------------------------------
# Generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic input description.

    kind: one of "uniform" (each coordinate kept with probability
    `density`), "rowband" (`dense_rows` fully dense rows at random
    positions), "identity", or "explicit" (a fixed CooTensor).
    """

    shape: tuple
    kind: str
    density: float = 0.0
    seed: int = 0
    dense_rows: int = 0
    explicit: Optional[CooTensor] = None

    def __post_init__(self):
        if self.kind not in ("uniform", "rowband", "identity", "explicit"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "uniform" and not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density {self.density} outside [0, 1]")
        if self.kind == "rowband":
            if len(self.shape) != 2:
                raise ShapeMismatch("rowband generates matrices only")
            if self.dense_rows > self.shape[0]:
                raise ShapeMismatch(
                    f"{self.dense_rows} dense rows exceed {self.shape[0]} rows"
                )


def generate(spec: GeneratorSpec) -> CooTensor:
    """Materialize a generator spec; identical spec gives identical output."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "explicit":
        return spec.explicit.normalize()
    if spec.kind == "identity":
        n = min(spec.shape)
        return CooTensor(spec.shape, [((i,) * len(spec.shape), 1.0) for i in range(n)])
    if spec.kind == "uniform":
        volume = int(np.prod(spec.shape))
        flat = np.flatnonzero(rng.random(volume) < spec.density)
        values = 1.0 - rng.random(flat.size)  # uniform in (0, 1]
        coords = np.unravel_index(flat, spec.shape)
        entries = [
            (tuple(int(c[k]) for c in coords), float(values[k]))
            for k in range(flat.size)
        ]
        return CooTensor(spec.shape, entries)
    rows, cols = spec.shape
    picked = np.sort(rng.choice(rows, size=spec.dense_rows, replace=False))
    values = 1.0 - rng.random(spec.dense_rows * cols)
    entries = []
    k = 0
    for r in picked:
        for c in range(cols):
            entries.append(((int(r), c), float(values[k])))
            k += 1
    return CooTensor(spec.shape, entries)


def density(tensor) -> float:
    """Fraction of structurally nonzero values; explicit zeros excluded."""
    volume = math.prod(tensor.shape)
    return np.count_nonzero(tensor.arrays()[1]) / volume if volume else 0.0
