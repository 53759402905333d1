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
A point is a set of sparse iterators and the subexpression active where
they coincide. Compressed levels contribute iterators; dense levels and
loop-invariant subexpressions are read by random access and never drive
the merge. Multiplication intersects (pairwise conjunction of points),
addition and subtraction union (conjunctions plus both operand lattices).
When a union makes the whole extent reachable, a point without iterators
remains, and the lattice is range-driven: its loops sweep every coordinate
while the sparse iterators advance alongside. That, like whether the loop
is dense, is read off the sorted points, not stored.
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
    """One co-iteration case: the sparse iterators that must coincide at a
    coordinate, and the subexpression active there. The expression's other
    accesses are read by random access or do not depend on the variable;
    a point without iterators covers every coordinate."""

    iterators: frozenset  # uids of the compressed accesses merged here
    expr: Expr


@dataclass(frozen=True)
class MergeLattice:
    """One variable's points, closed under union and sorted largest
    first, so the first holds every iterator. The loop facts are read off
    them: a dense loop has no iterator, and a range-driven lattice has
    iterators and a point without any, so its loops sweep the whole extent
    while the iterators advance alongside."""

    var: str
    points: tuple
    extent: int

    @property
    def first(self) -> LatticePoint:
        return self.points[0]

    @property
    def range_driven(self) -> bool:
        return bool(self.first.iterators) and not self.points[-1].iterators


def build_lattice(kernel: Kernel, var: str) -> MergeLattice:
    """Merge lattice of the whole right-hand side for one index variable."""
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    an = kernel.analysis
    return build_lattice_for(an.indexed_rhs, var, kernel.tensors, an.var_extents[var])


def build_lattice_for(expr: Expr, var: str, tensors: dict, extent: int) -> MergeLattice:
    points = _points(expr, var, tensors)
    points.sort(key=lambda p: -len(p.iterators))
    return MergeLattice(var, tuple(points), extent)


def _points(expr: Expr, var: str, tensors: dict) -> list:
    if isinstance(expr, AccessRef) and var in expr.indices:
        enc = tensors[expr.tensor].encoding
        if enc is not None and enc.levels[enc.level_of_dim(expr.indices.index(var))] is not DENSE:
            return [LatticePoint(frozenset({expr.uid}), expr)]
    if isinstance(expr, (AccessRef, Const)):
        return [LatticePoint(frozenset(), expr)]
    if isinstance(expr, Neg):
        return _negated(_points(expr.operand, var, tensors))
    left = _points(expr.lhs, var, tensors)
    right = _points(expr.rhs, var, tensors)
    node_type = type(expr)
    combined = [
        LatticePoint(a.iterators | b.iterators, node_type(a.expr, b.expr))
        for a in left
        for b in right
    ]
    if isinstance(expr, Mul):
        return _dedupe(combined)
    # Union semantics: either side alone still contributes. A right-only
    # point of a subtraction contributes its negation (0 - y).
    return _dedupe(combined + left + (_negated(right) if isinstance(expr, Sub) else right))


def _negated(points: list) -> list:
    return [LatticePoint(p.iterators, Neg(p.expr)) for p in points]


def _dedupe(points: list) -> list:
    seen = set()
    out = []
    for p in points:
        if p.iterators not in seen:
            seen.add(p.iterators)
            out.append(p)
    return out


def lattice_to_text(lat: MergeLattice, names: Optional[dict] = None) -> str:
    """Deterministic dump used by --emit=lattice and golden tests. A
    range-driven lattice lists `<range>` first in every point."""
    names = names or {}
    lead = ["<range>"] if lat.range_driven else []
    lines = [f"lattice {lat.var}: {len(lat.points)} point(s), extent {lat.extent}"]
    for p in lat.points:
        its = ", ".join(lead + [names.get(u, str(u)) for u in sorted(p.iterators)])
        lines.append(f"  {{{its}}} -> {expr_to_text(p.expr)}")
    return "\n".join(lines)
