"""Entropy-regularized optimal transport via Sinkhorn-Knopp scaling.

Maximizes  Tr(pi^T M) + epsilon * H(pi)  over couplings with prescribed row
masses (one unit per user) and column masses (item capacities), where
H(pi) = -sum pi_ij (log pi_ij - 1). The optimum factors as

    pi[i, j] = exp(log_a[i] + M[i, j] / epsilon + log_b[j])

and is found by alternating row/column scalings. Everything runs in the log
domain with log-sum-exp reductions; the plain multiplicative form overflows
for small epsilon. The reductions are arranged for speed without changing a
bit of the plain loop's output: each shift (the max) comes from an
items-major copy of the kernel, while every sum keeps the kernel's own layout
and so numpy's summation order (see ``solve_ot``).

When total capacity exceeds the number of users, the instance is extended
with one virtual user row of zero affinity carrying the surplus mass, which
restores equality marginals without perturbing gradients in the item
embeddings. ``cross_entropy_loss`` scores a coupling against an observed
hard matching; training and evaluation both use it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OtInstance:
    """Balanced transport instance, possibly extended with a slack row.

    ``n_users`` counts the real users; when ``affinity`` has one extra row it
    is the virtual user absorbing the unused capacity.
    """

    affinity: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    epsilon: float
    n_users: int


def extend_with_slack(affinity, caps, epsilon: float) -> OtInstance:
    """Build a balanced instance; appends a zero-affinity virtual user when
    total capacity exceeds the number of users. The capacities are a
    validated integer vector with total at least the number of users."""
    n, m = affinity.shape
    total = int(caps.sum())
    if total == n:
        rows = np.ones(n)
    else:
        affinity = np.vstack([affinity, np.zeros((1, m))])
        rows = np.concatenate([np.ones(n), [float(total - n)]])
    return OtInstance(
        affinity=affinity,
        row_masses=rows,
        col_masses=caps.astype(np.float64),
        epsilon=float(epsilon),
        n_users=n,
    )


@dataclass(frozen=True)
class SinkhornResult:
    """Converged (or truncated) scaling state.

    ``coupling`` includes the virtual slack row when the instance carries one;
    ``user_coupling`` strips it. The product form
    coupling = exp(log_a[:, None] + M / epsilon + log_b[None, :]) holds exactly
    by construction.
    """

    coupling: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray
    iterations: int
    marginal_error: float
    converged: bool
    n_users: int

    @property
    def user_coupling(self) -> np.ndarray:
        return self.coupling[: self.n_users]


def solve_ot(
    inst: OtInstance,
    iterations: int | None = None,
    tol: float | None = None,
    max_iterations: int = 10_000,
    log_b_init: np.ndarray | None = None,
) -> SinkhornResult:
    """Run Sinkhorn scaling on ``inst``.

    Exactly one stopping mode applies: a fixed number of ``iterations``
    (training mode), or a marginal ``tol`` with an iteration cap
    (analysis mode); either count must be at least 1. One iteration is a
    row update followed by a column update. ``log_b_init`` warm-starts the
    column scalings (defaults to zeros). Under tolerance mode a run that
    exhausts ``max_iterations`` returns with ``converged=False`` rather than
    raising.

    Each log-sum-exp takes its shift (the max) from ``log_kt``, an
    items-major copy of ``log_k``: a max is exact in any order, and there it
    reduces along the long axis. The subtract, ``exp`` and sum run on
    ``log_k`` in its own layout, since summing in another order would change
    the bits. Tolerance mode screens each iterate with the row log-sum-exp
    that the next row update needs anyway, which gives the row sums as
    ``exp(log_a + lse_row)``. Only a screen within ``2 * tol`` builds the
    coupling for the exact row and column errors, and that exact check alone
    decides the stop. The two row-sum formulas differ by rounding alone
    (under 1e-12 at a slack mass of 2,000), so above that a screen hides no
    stop that the exact check would make.
    """
    if (iterations is None) == (tol is None):
        raise ValueError("specify exactly one of iterations or tol")
    limit = iterations if tol is None else max_iterations
    if limit < 1:
        raise ValueError("iterations and max_iterations must be at least 1")
    log_k = inst.affinity / inst.epsilon
    log_kt = np.ascontiguousarray(log_k.T)
    log_r = np.log(inst.row_masses)
    log_c = np.log(inst.col_masses)
    log_b = np.zeros(inst.affinity.shape[1]) if log_b_init is None else log_b_init
    buf = np.empty_like(log_k)
    buf_t = np.empty_like(log_kt)

    def row_lse(log_b):
        shift = np.add(log_kt, log_b[:, None], out=buf_t).max(axis=0)
        np.add(log_k, log_b, out=buf)
        np.subtract(buf, shift[:, None], out=buf)
        out = np.log(np.exp(buf, out=buf).sum(axis=1))
        out += shift
        return out

    def col_lse(log_a):
        shift = np.add(log_kt, log_a, out=buf_t).max(axis=1)
        np.add(log_a[:, None], log_k, out=buf)
        np.subtract(buf, shift, out=buf)
        out = np.log(np.exp(buf, out=buf).sum(axis=0))
        out += shift
        return out

    def coupling_and_error() -> tuple[np.ndarray, float]:
        pi = np.exp(log_a[:, None] + log_k + log_b[None, :])
        row_err = np.max(np.abs(pi.sum(axis=1) - inst.row_masses))
        col_err = np.max(np.abs(pi.sum(axis=0) - inst.col_masses))
        return pi, float(max(row_err, col_err))

    lse_row = row_lse(log_b)
    for done in range(1, limit + 1):
        log_a = log_r - lse_row
        log_b = log_c - col_lse(log_a)
        if done == limit:
            pi, error = coupling_and_error()
            break
        lse_row = row_lse(log_b)
        if tol is not None and np.max(np.abs(np.exp(log_a + lse_row) - inst.row_masses)) <= 2 * tol:
            pi, error = coupling_and_error()
            if error <= tol:
                break
    return SinkhornResult(
        coupling=pi,
        log_a=log_a,
        log_b=log_b,
        iterations=done,
        marginal_error=error,
        converged=tol is None or error <= tol,
        n_users=inst.n_users,
    )


def entropy(pi) -> float:
    """H(pi) = -sum pi_ij (log pi_ij - 1).

    Entries below 1e-300 (including exact zeros produced by underflow)
    contribute 0, the limit of x (log x - 1); negative entries are a domain
    error.
    """
    arr = np.asarray(pi, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("entropy requires a nonnegative coupling")
    tiny = arr < 1e-300
    safe = np.where(tiny, 1.0, arr)
    terms = np.where(tiny, 0.0, safe * (np.log(safe) - 1.0))
    return float(-terms.sum())


def ot_value(affinity, pi, epsilon: float) -> float:
    """Objective value Tr(pi^T M) + epsilon * H(pi)."""
    return float(np.sum(pi * affinity)) + epsilon * entropy(pi)


def cross_entropy_loss(assign, coupling) -> float:
    """-sum_i log coupling[i, assign[i]] over the real users.

    Accepts a coupling carrying one extra slack row; that row is ignored.
    """
    matched = coupling[np.arange(len(assign)), assign]
    if np.any(matched <= 0):
        raise ValueError("coupling vanishes on a matched pair")
    return float(-np.log(matched).sum())
