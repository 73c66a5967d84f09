"""Exact (unregularized) optimal transport at test scale.

Solves  min sum c_ij x_ij  s.t.  row sums = p, column sums = q, x >= 0
with the transportation simplex: a northwest-corner starting basis, dual
potentials recovered from the basis tree each pivot, and Bland's rule (first
negative reduced cost enters, smallest-index arc leaves) so degenerate pivots
cannot cycle.  Optimality is certified against the recovered duals before the
plan is returned.

The dense plan limits this to small instances; it exists as a ground-truth
companion to the scaled solver in :mod:`otvelo.otcore`, not as a production
path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import GridGeometry, MassField

ORACLE_MAX_PIXELS = 256

_ENTER_TOL = 1e-11
_VERIFY_TOL = 1e-9
_BALANCE_TOL = 1e-9


class ScaleError(ValueError):
    """The exact oracle was asked for more than ORACLE_MAX_PIXELS pixels."""


class BalanceError(ValueError):
    """Marginals do not carry equal total mass."""


@dataclass(frozen=True, eq=False)
class ExactPlan:
    """Optimal plan with its cost and the certifying dual potentials."""

    value: float
    plan: np.ndarray
    iterations: int
    row_duals: np.ndarray
    col_duals: np.ndarray


def exact_wasserstein(p: MassField, q: MassField) -> ExactPlan:
    """Exact transport distance between two mass fields under the squared
    Euclidean cost of :mod:`otvelo.otcore`.

    ``iterations`` counts simplex pivots.  Raises ScaleError beyond
    ORACLE_MAX_PIXELS pixels, before anything N x N is allocated, and
    BalanceError when total masses differ by more than 1e-9.
    """
    if p.geometry != q.geometry:
        raise ValueError("source and target must share one grid geometry")
    n = p.geometry.n
    if n > ORACLE_MAX_PIXELS:
        raise ScaleError(
            f"exact solver is limited to {ORACLE_MAX_PIXELS} pixels, got {n}"
        )
    a = np.asarray(p.mass, dtype=np.float64).copy()
    b = np.asarray(q.mass, dtype=np.float64).copy()
    if abs(a.sum() - b.sum()) > _BALANCE_TOL:
        raise BalanceError(
            f"marginal totals differ by {abs(a.sum() - b.sum()):.3e} (> {_BALANCE_TOL})"
        )
    b *= a.sum() / b.sum()
    cost = _squared_distances(p.geometry)
    plan, iterations, u, v = _transport_simplex(cost, a, b)
    value = float((plan * cost).sum())
    _verify(cost, a, b, plan, u, v, value)
    return ExactPlan(value, plan, iterations, u, v)


def _squared_distances(geometry: GridGeometry) -> np.ndarray:
    """N x N squared distances between pixel centers in normalized
    coordinates: the ground cost the scaled solver never forms."""
    x, y = geometry.pixel_centers()
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return dx * dx + dy * dy


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basis of m + n - 1 arcs via the northwest-corner walk."""
    m, n = len(a), len(b)
    ar = a.copy()
    br = b.copy()
    arcs = []
    flows = []
    i = j = 0
    for _ in range(m + n - 1):
        x = min(ar[i], br[j])
        arcs.append((i, j))
        flows.append(x)
        ar[i] -= x
        br[j] -= x
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif ar[i] <= br[j]:
            i += 1
        else:
            j += 1
    return arcs, flows


def _tree_adjacency(arcs, m):
    adj = {}
    for k, (i, j) in enumerate(arcs):
        adj.setdefault(i, []).append((m + j, k))
        adj.setdefault(m + j, []).append((i, k))
    return adj


def _duals_from_tree(arcs, adj, cost, m, n):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nb, k in adj.get(node, ()):
            if nb in seen:
                continue
            i, j = arcs[k]
            if node < m:
                v[j] = cost[i, j] - u[i]
            else:
                u[i] = cost[i, j] - v[j]
            seen.add(nb)
            stack.append(nb)
    return u, v


def _cycle_path(adj, start, goal):
    """Arc indices along the basis-tree path from node start to node goal."""
    parent = {start: (None, None)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nb, k in adj.get(node, ()):
            if nb not in parent:
                parent[nb] = (node, k)
                stack.append(nb)
    path = []
    node = goal
    while parent[node][0] is not None:
        prev, k = parent[node]
        path.append(k)
        node = prev
    path.reverse()
    return path


def _transport_simplex(cost, a, b):
    m, n = cost.shape
    arcs, flows = _northwest_corner(a, b)
    adj = _tree_adjacency(arcs, m)
    max_pivots = 1000 + 50 * m * n
    pivots = 0
    while True:
        u, v = _duals_from_tree(arcs, adj, cost, m, n)
        reduced = cost - u[:, None] - v[None, :]
        candidates = reduced.reshape(-1) < -_ENTER_TOL
        if not candidates.any():
            break
        if pivots >= max_pivots:
            raise RuntimeError("transportation simplex exceeded pivot budget")
        pivots += 1
        # Bland: first violating arc in row-major order enters.
        enter = int(np.argmax(candidates))
        ei, ej = divmod(enter, n)
        path = _cycle_path(adj, ei, m + ej)
        # Walking the tree path from the entering row, arcs alternate
        # -theta, +theta, -theta, ...
        minus = path[0::2]
        theta = min(flows[k] for k in minus)
        leave = min((k for k in minus if flows[k] <= theta + 0.0),
                    key=lambda k: arcs[k][0] * n + arcs[k][1])
        sign = -1.0
        for k in path:
            flows[k] += sign * theta
            sign = -sign
        for k in minus:
            # degenerate ties can leave -1e-17 residue behind
            if flows[k] < 0.0:
                flows[k] = 0.0
        arcs[leave] = (ei, ej)
        flows[leave] = theta
        adj = _tree_adjacency(arcs, m)
    plan = np.zeros((m, n))
    for (i, j), x in zip(arcs, flows):
        plan[i, j] += max(x, 0.0)
    return plan, pivots, u, v


def _verify(cost, a, b, plan, u, v, value):
    reduced = cost - u[:, None] - v[None, :]
    checks = [
        (np.abs(plan.sum(axis=1) - a).max() <= _VERIFY_TOL, "row marginals"),
        (np.abs(plan.sum(axis=0) - b).max() <= _VERIFY_TOL, "column marginals"),
        (reduced.min() >= -_VERIFY_TOL, "dual feasibility"),
        (np.abs(reduced[plan > 1e-12]).max(initial=0.0) <= _VERIFY_TOL,
         "complementary slackness"),
        (abs(value - (a @ u + b @ v)) <= _VERIFY_TOL * max(1.0, abs(value)),
         "duality gap"),
    ]
    failed = [name for ok, name in checks if not ok]
    if failed:
        raise RuntimeError(f"optimality verification failed: {', '.join(failed)}")
