"""Iteration graphs and merge lattices.

The iteration graph orders index variables: every access whose tensor has
compressed storage requires the variables of its outer storage levels to
be bound before an inner compressed level can be walked, so each such
access contributes a precedence chain over its storage-ordered dimensions
up to its last compressed level. Purely dense operands are random access
and impose nothing. A cycle means no loop order can serve every operand
as stored, which surfaces as OrderConflict: conversions are explicit
here, never implicit transposes.

A merge lattice describes how one variable's loop visits coordinates.
Compressed levels contribute sparse iterators; dense levels and
loop-invariant subexpressions are random-access locators that never drive
the merge. Multiplication intersects (pairwise conjunction of points),
addition and subtraction union (conjunctions plus both operand lattices).
When a union makes the whole extent reachable, a synthetic dense range
driver joins every point so the loop sweeps all coordinates while the
sparse iterators advance alongside.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from .encoding import DENSE
from .errors import OrderConflict
from .expr import (
    AccessRef,
    Const,
    Expr,
    Kernel,
    Mul,
    Neg,
    Sub,
    analyze_reductions,
    expr_to_text,
)

# ----------------------------------------------------------------------------
# Access instances


def access_display_names(refs) -> dict:
    """uid -> short name; tensors accessed once keep their bare name."""
    counts: Dict[str, int] = {}
    for ref in refs:
        counts[ref.tensor] = counts.get(ref.tensor, 0) + 1
    seen: Dict[str, int] = {}
    names = {}
    for ref in refs:
        if counts[ref.tensor] == 1:
            names[ref.uid] = ref.tensor
        else:
            n = seen.get(ref.tensor, 0)
            seen[ref.tensor] = n + 1
            names[ref.uid] = f"{ref.tensor}_{n}" if n else ref.tensor
    return names


# ----------------------------------------------------------------------------
# Iteration graph


@dataclass
class IterationGraph:
    nodes: tuple  # index vars, first-appearance order
    edges: dict  # (u, v) -> sorted tuple of tensor names that induce it

    def successors(self, u):
        return [v for (a, v) in self.edges if a == u]


def build_iteration_graph(kernel: Kernel) -> IterationGraph:
    """Collect loop-order constraints from every access, the output included."""
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    edges: Dict[tuple, set] = {}
    for tensor, chain in kernel.analysis.chains:
        for u, v in zip(chain, chain[1:]):
            edges.setdefault((u, v), set()).add(tensor)
    return IterationGraph(kernel.index_vars, {k: tuple(sorted(v)) for k, v in edges.items()})


def topo_sort(graph: IterationGraph) -> list:
    """Deterministic topological order; ties go to earlier kernel-text
    appearance. Raises OrderConflict naming a cycle when none exists."""
    order = {v: i for i, v in enumerate(graph.nodes)}
    indeg = {v: 0 for v in graph.nodes}
    for (u, v) in graph.edges:
        indeg[v] += 1
    ready = sorted((v for v in graph.nodes if indeg[v] == 0), key=order.get)
    out = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        changed = False
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort(key=order.get)
    if len(out) != len(graph.nodes):
        raise OrderConflict(_find_cycle(graph, set(graph.nodes) - set(out)))
    return out


def check_order(kernel: Kernel, order) -> None:
    """Raise OrderConflict, naming the sequence `order`, unless it is a
    topological order of the analysed kernel's iteration graph: every
    index variable once, each after the variables its edges put before
    it."""
    at = {v: i for i, v in enumerate(order)}
    if len(at) != len(order) or at.keys() != set(kernel.index_vars):
        raise OrderConflict(
            order=order,
            reason=f"must list each of the loop variables {', '.join(kernel.index_vars)} once",
        )
    for tensor, chain in kernel.analysis.chains:
        for u, v in zip(chain, chain[1:]):
            if at[u] > at[v]:
                raise OrderConflict(
                    order=order,
                    reason=f"runs {v} outside {u}, but the storage of {tensor} "
                    f"needs {u} outside {v}",
                )


def _find_cycle(graph: IterationGraph, remaining: set) -> list:
    # Every node Kahn left behind has a predecessor among the leftovers, so
    # walking predecessors must revisit a node, closing a cycle.
    order = {v: i for i, v in enumerate(graph.nodes)}
    preds = {v: [] for v in remaining}
    for (u, v) in graph.edges:
        if u in remaining and v in remaining:
            preds[v].append(u)
    seen = []
    v = min(remaining, key=order.get)
    while v not in seen:
        seen.append(v)
        v = preds[v][0]
    cycle = seen[seen.index(v) :]
    cycle.reverse()
    return cycle


# ----------------------------------------------------------------------------
# Merge lattices


@dataclass(frozen=True)
class LatticePoint:
    """One co-iteration case: the sparse iterators that must coincide, the
    random-access operands read alongside, and the active subexpression."""

    iterators: frozenset  # uids of sparse iterators merged here
    locators: frozenset  # uids of dense/random-access operands
    expr: Expr
    full: bool  # iteration space covers every coordinate


RANGE_DRIVER = -1  # pseudo-iterator uid: the dense 0..extent sweep


@dataclass(frozen=True)
class MergeLattice:
    var: str
    points: tuple
    extent: int
    range_driven: bool  # a dense range driver joined the merge

    @property
    def first(self) -> LatticePoint:
        return self.points[0]

    @property
    def is_dense_loop(self) -> bool:
        """True when no sparse iterator exists: a plain for-loop suffices."""
        return not any(p.iterators - {RANGE_DRIVER} for p in self.points)

    def sub_points(self, point: LatticePoint) -> tuple:
        return tuple(q for q in self.points if q.iterators <= point.iterators)

    def iterator_uids(self) -> tuple:
        out = []
        for p in self.points:
            for u in sorted(p.iterators):
                if u != RANGE_DRIVER and u not in out:
                    out.append(u)
        return tuple(out)


def build_lattice(kernel: Kernel, var: str) -> MergeLattice:
    """Merge lattice of the whole right-hand side for one index variable."""
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    an = kernel.analysis
    return build_lattice_for(an.indexed_rhs, var, kernel.tensors, an.var_extents[var])


def build_lattice_for(expr: Expr, var: str, tensors: dict, extent: int) -> MergeLattice:
    points = _points(expr, var, tensors)
    full = any(p.full for p in points)
    has_iterators = any(p.iterators for p in points)
    range_driven = full and has_iterators
    if range_driven:
        points = [
            LatticePoint(p.iterators | {RANGE_DRIVER}, p.locators, p.expr, p.full)
            for p in points
            if p.full or p.iterators
        ]
        points = _dedupe(points)
    points.sort(key=lambda p: -len(p.iterators))
    return MergeLattice(var, tuple(points), extent, range_driven)


def _points(expr: Expr, var: str, tensors: dict) -> list:
    if isinstance(expr, AccessRef):
        if var not in expr.indices:
            return [LatticePoint(frozenset(), frozenset(), expr, True)]
        enc = tensors[expr.tensor].encoding
        if enc is None or enc.levels[enc.level_of_dim(expr.indices.index(var))] is DENSE:
            return [LatticePoint(frozenset(), frozenset({expr.uid}), expr, True)]
        return [LatticePoint(frozenset({expr.uid}), frozenset(), expr, False)]
    if isinstance(expr, Const):
        return [LatticePoint(frozenset(), frozenset(), expr, True)]
    if isinstance(expr, Neg):
        return [
            LatticePoint(p.iterators, p.locators, Neg(p.expr), p.full)
            for p in _points(expr.operand, var, tensors)
        ]
    left = _points(expr.lhs, var, tensors)
    right = _points(expr.rhs, var, tensors)
    node_type = type(expr)
    combined = [
        LatticePoint(
            a.iterators | b.iterators,
            a.locators | b.locators,
            node_type(a.expr, b.expr),
            a.full and b.full,
        )
        for a in left
        for b in right
    ]
    if isinstance(expr, Mul):
        return _dedupe(combined)
    # Union semantics: either side alone still contributes. A right-only
    # point of a subtraction contributes its negation (0 - y).
    tail = list(left)
    if isinstance(expr, Sub):
        tail += [LatticePoint(p.iterators, p.locators, Neg(p.expr), p.full) for p in right]
    else:
        tail += right
    return _dedupe(combined + tail)


def _dedupe(points: list) -> list:
    seen = set()
    out = []
    for p in points:
        if p.iterators not in seen:
            seen.add(p.iterators)
            out.append(p)
    return out


def lattice_to_text(lat: MergeLattice, names: Optional[dict] = None) -> str:
    """Deterministic dump used by --emit=lattice and golden tests."""
    def itname(uid):
        if uid == RANGE_DRIVER:
            return "<range>"
        return names.get(uid, str(uid)) if names else str(uid)

    lines = [f"lattice {lat.var}: {len(lat.points)} point(s), extent {lat.extent}"]
    for p in lat.points:
        its = ", ".join(itname(u) for u in sorted(p.iterators))
        lines.append(f"  {{{its}}} -> {expr_to_text(p.expr)}")
    return "\n".join(lines)
