import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from otvelo import GridGeometry, KernelSpec, MassField, sinkhorn, wasserstein_value
from otvelo.oracle import (
    ORACLE_MAX_PIXELS, BalanceError, ScaleError, _squared_distances, exact_wasserstein,
)


def brute_force_value(cost, a, b):
    """Optimal transport cost by enumerating all basic feasible solutions.

    Only sane for m + n <= 8 or so; every C(m*n, m+n-1) candidate basis is
    solved for the marginal equations and the best feasible vertex wins.
    """
    m, n = cost.shape
    arcs = list(itertools.product(range(m), range(n)))
    k = m + n - 1
    # equality system: row sums then column sums (drop one dependent row)
    rows = []
    rhs = []
    for i in range(m):
        rows.append([1.0 if arc[0] == i else 0.0 for arc in arcs])
        rhs.append(a[i])
    for j in range(n - 1):
        rows.append([1.0 if arc[1] == j else 0.0 for arc in arcs])
        rhs.append(b[j])
    eq = np.asarray(rows)
    rhs = np.asarray(rhs)
    best = np.inf
    for basis in itertools.combinations(range(len(arcs)), k):
        sub = eq[:, basis]
        try:
            x = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-12):
            continue
        val = sum(cost[arcs[idx]] * x[pos] for pos, idx in enumerate(basis))
        best = min(best, val)
    return best


def linprog_value(cost, a, b):
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(cost.reshape(-1), A_eq=a_eq[:-1], b_eq=np.concatenate([a, b])[:-1],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def field(g, weights, mask=None):
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if mask is None:
        mask = np.ones(g.n, dtype=bool)
    return MassField(g, w / w.sum(), mask, 1e-10)


def test_identity_is_zero_with_diagonal_plan():
    g = GridGeometry(3, 3, 250.0)
    rng = np.random.default_rng(1)
    p = field(g, rng.uniform(0.5, 1.5, g.n))
    plan = exact_wasserstein(p, p)
    assert plan.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(np.diag(plan.plan), p.mass, atol=1e-12)
    off = plan.plan - np.diag(np.diag(plan.plan))
    assert np.abs(off).max() <= 1e-12


def test_pure_swap_two_pixels():
    g = GridGeometry(2, 1, 250.0)
    p = MassField(g, np.array([1.0 - 1e-12, 1e-12]), np.ones(2, bool), 1e-13)
    q = MassField(g, np.array([1e-12, 1.0 - 1e-12]), np.ones(2, bool), 1e-13)
    plan = exact_wasserstein(p, q)
    assert plan.value == pytest.approx(0.25, rel=1e-9)
    assert plan.plan[0, 1] == pytest.approx(1.0, rel=1e-9)


def test_matches_brute_force_enumeration():
    g = GridGeometry(2, 2, 250.0)
    cost = _squared_distances(g)
    rng = np.random.default_rng(20260814)
    for _ in range(6):
        p = field(g, rng.uniform(0.1, 1.0, g.n))
        q = field(g, rng.uniform(0.1, 1.0, g.n))
        plan = exact_wasserstein(p, q)
        ref = brute_force_value(cost, p.mass, q.mass)
        assert plan.value == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_matches_independent_lp_solver():
    g = GridGeometry(3, 3, 250.0)
    cost = _squared_distances(g)
    rng = np.random.default_rng(77)
    for _ in range(5):
        p = field(g, rng.uniform(0.1, 1.0, g.n))
        q = field(g, rng.uniform(0.1, 1.0, g.n))
        plan = exact_wasserstein(p, q)
        ref = linprog_value(cost, p.mass, q.mass)
        assert plan.value == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_frozen_translation_value():
    # 4x1 grid, all mass moves one pixel right: cost = (1/4)^2 = 0.0625
    g = GridGeometry(4, 1, 250.0)
    p = field(g, [1.0, 1.0, 1.0, 1e-9])
    q = field(g, [1e-9, 1.0, 1.0, 1.0])
    plan = exact_wasserstein(p, q)
    # three chunks of mass 1/3 each move one pitch: 3 * (1/3) * 0.25^2
    assert plan.value == pytest.approx(0.0625, rel=1e-6)


def test_plan_marginals_and_duals():
    g = GridGeometry(3, 2, 250.0)
    cost = _squared_distances(g)
    rng = np.random.default_rng(5)
    p = field(g, rng.uniform(0.1, 1.0, g.n))
    q = field(g, rng.uniform(0.1, 1.0, g.n))
    plan = exact_wasserstein(p, q)
    assert np.abs(plan.plan.sum(axis=1) - p.mass).max() <= 1e-12
    assert np.abs(plan.plan.sum(axis=0) - q.mass).max() <= 1e-12
    # dual feasibility and strong duality certify optimality
    spread = plan.row_duals[:, None] + plan.col_duals[None, :]
    assert (cost - spread).min() >= -1e-9
    dual_value = plan.row_duals @ p.mass + plan.col_duals @ q.mass
    assert dual_value == pytest.approx(plan.value, abs=1e-9)


def test_permutation_of_labels_preserves_value():
    g = GridGeometry(2, 2, 250.0)
    rng = np.random.default_rng(9)
    p = field(g, rng.uniform(0.1, 1.0, g.n))
    q = field(g, rng.uniform(0.1, 1.0, g.n))
    fwd = exact_wasserstein(p, q)
    rev = exact_wasserstein(q, p)
    assert fwd.value == pytest.approx(rev.value, rel=1e-12)
    assert np.allclose(fwd.plan, rev.plan.T, atol=1e-12)


def test_entropic_gap_shrinks_with_eps():
    g = GridGeometry(4, 4, 250.0)
    rng = np.random.default_rng(13)
    p = field(g, rng.uniform(0.1, 1.0, g.n))
    q = field(g, rng.uniform(0.1, 1.0, g.n))
    exact = exact_wasserstein(p, q)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        pair = sinkhorn(p, q, KernelSpec(eps, "dense"), tol=1e-10, max_iter=100000)
        gaps.append(abs(exact.value - wasserstein_value(p, q, pair)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_balance_and_scale_errors():
    g = GridGeometry(2, 1, 250.0)
    p = MassField(g, np.array([0.5, 0.5]), np.ones(2, bool), 1e-10)
    q = MassField(g, np.array([0.5, 0.5 + 5e-9]) / (1.0 + 5e-9),
                  np.ones(2, bool), 1e-10)
    # same geometry, same unit sum: balanced by construction, so no error
    exact_wasserstein(p, q)

    big = GridGeometry(17, 17, 250.0)  # 289 > 256
    pb = field(big, np.ones(big.n))
    with pytest.raises(ScaleError):
        exact_wasserstein(pb, pb)
    assert ORACLE_MAX_PIXELS == 256
    # the 4096^2 cost of a 64^2 pair would take 134 MB per array; the refusal
    # comes first, and its advice names no conv mode
    g64 = GridGeometry(64, 64, 250.0)
    p64 = field(g64, np.ones(g64.n))
    tracemalloc.start()
    try:
        with pytest.raises(ScaleError, match="256 pixels") as exc:
            exact_wasserstein(p64, p64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "conv" not in str(exc.value)
    assert peak < 50e6

    turned = field(GridGeometry(1, 2, 250.0), [0.5, 0.5])
    with pytest.raises(ValueError, match="share one grid geometry"):
        exact_wasserstein(p, turned)


def test_unbalanced_marginals_rejected():
    # bypass MassField normalization via a raw call path: scale q after build
    g = GridGeometry(2, 1, 250.0)
    p = field(g, [0.4, 0.6])
    q = field(g, [0.7, 0.3])
    object.__setattr__(q, "mass", q.mass * 1.01)
    with pytest.raises(BalanceError):
        exact_wasserstein(p, q)
