"""Shared test utilities: instance builders, independent oracles and a script loader."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from simca.model import compute_affinity
from simca.sinkhorn import SinkhornResult, extend_with_slack, solve_ot
from simca.training import cross_entropy_loss, matching_with_slack


ROOT = Path(__file__).resolve().parents[1]


def load_module(path):
    """The Python file at ``path``, relative to the repository root, imported
    as a module named after the file: how the tests reach the scripts and the
    benchmark, which are not packages."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_instance(rng, n, m, d, caps=None, slack=0):
    """Random embeddings, distances and a feasible greedy matching."""
    users = rng.normal(size=(n, d))
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    distances = np.abs(rng.normal(size=(n, m)))
    if caps is None:
        caps = np.full(m, n // m, dtype=np.int64)
        caps[: n % m] += 1
        caps = caps + slack
    else:
        caps = np.asarray(caps, dtype=np.int64)
    affinity = rng.normal(size=(n, m))
    matching = greedy_matching(affinity, caps)
    return users, distances, caps, matching


def greedy_matching(scores, caps):
    """Feasible matching built row by row; not optimal, just valid."""
    caps = np.asarray(caps, dtype=np.int64)
    remaining = caps.copy()
    out = np.empty(scores.shape[0], dtype=np.int64)
    for i in range(scores.shape[0]):
        masked = np.where(remaining > 0, scores[i], -np.inf)
        j = int(np.argmax(masked))
        out[i] = j
        remaining[j] -= 1
    return out


def slot_expanded_lap(scores, caps):
    """Independent capacity LAP: every item j expands into caps[j] unit slots,
    and the dense n x sum(caps) rectangle goes to ``linear_sum_assignment``.
    Slots are ordered by item, so ties resolve deterministically. Memory is
    O(n * sum(caps)); mid-size instances only."""
    M = np.asarray(scores, dtype=np.float64)
    slot_item = np.repeat(np.arange(len(caps)), caps)
    rows, cols = linear_sum_assignment(-M[:, slot_item])
    assign = np.empty(M.shape[0], dtype=np.int64)
    assign[rows] = slot_item[cols]
    return assign


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def reference_solve_ot(
    inst,
    iterations=None,
    tol=None,
    max_iterations=10_000,
    log_b_init=None,
) -> SinkhornResult:
    """Oracle for ``simca.sinkhorn.solve_ot``: the plain Sinkhorn loop, one
    log-sum-exp per half step on ``log_k``'s own layout and the exact
    coupling and marginal errors built on every tolerance iteration. With
    ``iterations`` it matches ``solve_ot`` bit for bit; with ``tol`` it
    solves the same problem by another method, for agreement checks."""
    if (iterations is None) == (tol is None):
        raise ValueError("specify exactly one of iterations or tol")
    limit = iterations if tol is None else max_iterations
    if limit < 1:
        raise ValueError("iterations and max_iterations must be at least 1")
    log_k = inst.affinity / inst.epsilon
    log_r = np.log(inst.row_masses)
    log_c = np.log(inst.col_masses)
    log_b = np.zeros(inst.affinity.shape[1]) if log_b_init is None else log_b_init

    def coupling_and_error():
        pi = np.exp(log_a[:, None] + log_k + log_b[None, :])
        row_err = np.max(np.abs(pi.sum(axis=1) - inst.row_masses))
        col_err = np.max(np.abs(pi.sum(axis=0) - inst.col_masses))
        return pi, float(max(row_err, col_err))

    for done in range(1, limit + 1):
        log_a = log_r - _logsumexp(log_k + log_b[None, :], axis=1)
        log_b = log_c - _logsumexp(log_a[:, None] + log_k, axis=0)
        if tol is not None:
            pi, error = coupling_and_error()
            if error <= tol:
                break
    if tol is None:
        pi, error = coupling_and_error()
    return SinkhornResult(
        coupling=pi,
        log_a=log_a,
        log_b=log_b,
        iterations=done,
        converged=tol is None or error <= tol,
        inst=inst,
    )


def reference_newton(inst, tol, log_b_init=None) -> SinkhornResult:
    """Oracle for ``simca.sinkhorn.solve_ot`` in tolerance mode: the damped
    Newton loop of ``simca.sinkhorn._newton`` written plainly on the
    (n+1, m) layout, one ``_logsumexp`` per row half-step and fresh arrays
    for every iterate, trial and Hessian. It matches ``solve_ot(inst,
    tol=tol, log_b_init=log_b_init)`` bit for bit."""
    log_k = inst.affinity / inst.epsilon
    r, c = inst.row_masses, inst.col_masses
    log_r = np.log(r)
    m = len(c)

    def iterate(log_b):
        lse = _logsumexp(log_k + log_b[None, :], axis=1)
        log_a = log_r - lse
        pi = np.exp(log_a[:, None] + log_k + log_b[None, :])
        col_sums = pi.sum(axis=0)
        row_err = np.max(np.abs(pi.sum(axis=1) - r))
        col_err = np.max(np.abs(col_sums - c))
        return dict(log_a=log_a, log_b=log_b, pi=pi, col_sums=col_sums,
                    error=float(max(row_err, col_err)), value=r @ lse - c @ log_b,
                    rounding=1e-14 * (r @ np.abs(lse) + c @ np.abs(log_b)))

    here = iterate(np.zeros(m) if log_b_init is None else np.array(log_b_init, np.float64))
    steps = 0
    while here["error"] > tol and steps < 10_000:
        grad = here["col_sums"] - c
        pi = here["pi"]
        hess = np.diag(here["col_sums"]) - pi.T @ (pi / r[:, None]) + 1.0 / m
        hess[np.diag_indices(m)] += min(inst.epsilon, 1.0) * np.max(np.abs(grad))
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        slope = grad @ direction
        t = 1.0
        for _ in range(40):
            trial = iterate(here["log_b"] + t * direction)
            drop = here["value"] - trial["value"]
            if drop > here["rounding"]:
                taken = drop >= -1e-4 * t * slope
            else:
                taken = drop >= -here["rounding"] and trial["error"] < here["error"]
            if taken:
                break
            t /= 2
        else:
            break
        here = trial
        steps += 1
    return SinkhornResult(coupling=here["pi"], log_a=here["log_a"], log_b=here["log_b"],
                          iterations=steps, converged=here["error"] <= tol, inst=inst)


def converged_coupling(affinity, caps, epsilon, tol=1e-12):
    """Tolerance-mode transport solve, returning the full (slack-extended) result."""
    inst = extend_with_slack(affinity, caps, epsilon)
    return solve_ot(inst, tol=tol)


def slack_extended_loss(users, items, distances, caps, matching, alpha, epsilon, tol=1e-12):
    """Cross entropy including the virtual-row term on slack instances.

    Equals the plain user cross entropy when total capacity matches the user
    count; this is the quantity whose gradient the closed form computes.
    """
    affinity = compute_affinity(users, items, distances, alpha)
    result = converged_coupling(affinity, caps, epsilon, tol=tol)
    pi = result.coupling
    sigma_ext = matching_with_slack(matching, caps)
    if sigma_ext.shape[0] == len(matching):
        return cross_entropy_loss(matching, pi)
    virtual = float(-np.sum(sigma_ext[-1] * np.log(pi[-1])))
    return cross_entropy_loss(matching, pi) + virtual


def projected_gradient_ot(affinity, row_masses, col_masses, epsilon,
                          max_iters=200_000):
    """Independent solver for the entropy-regularized transport problem.

    Maximizes Tr(pi^T M) + eps * H(pi) by gradient ascent with Euclidean
    projection onto the affine marginal constraints (the positivity
    constraints stay inactive at the interior optimum). Small instances only.
    """
    M = np.asarray(affinity, dtype=np.float64)
    r = np.asarray(row_masses, dtype=np.float64)
    c = np.asarray(col_masses, dtype=np.float64)
    n, m = M.shape
    rows = []
    rhs = []
    for i in range(n):
        a = np.zeros((n, m))
        a[i, :] = 1.0
        rows.append(a.ravel())
        rhs.append(r[i])
    for j in range(m - 1):  # last column constraint is redundant
        a = np.zeros((n, m))
        a[:, j] = 1.0
        rows.append(a.ravel())
        rhs.append(c[j])
    A = np.array(rows)
    b = np.array(rhs)
    gram_inv = np.linalg.inv(A @ A.T)

    def project(x):
        return x - A.T @ (gram_inv @ (A @ x - b))

    def objective(x):
        return float(np.sum(x * M.ravel()) - epsilon * np.sum(x * (np.log(x) - 1.0)))

    x = (np.outer(r, c) / r.sum()).ravel()
    fx = objective(x)
    step = 0.05 * epsilon * float(np.min(x))
    for _ in range(max_iters):
        grad = M.ravel() - epsilon * np.log(x)
        x_new = project(x + step * grad)
        if np.any(x_new <= 0):
            step *= 0.5
            continue
        f_new = objective(x_new)
        if f_new < fx - 1e-15:
            step *= 0.5
            continue
        moved = float(np.linalg.norm(x_new - x))
        x, fx = x_new, f_new
        if moved < 1e-14 and abs(f_new - fx) < 1e-16:
            break
    return x.reshape(n, m), fx
