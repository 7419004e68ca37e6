"""Entropy-regularized optimal transport in the log domain.

Maximizes  Tr(pi^T M) + epsilon * H(pi)  over couplings with prescribed row
masses (one unit per user) and column masses (item capacities), where
H(pi) = -sum pi_ij (log pi_ij - 1). The optimum factors as

    pi[i, j] = exp(log_a[i] + M[i, j] / epsilon + log_b[j])

and ``solve_ot`` finds it by one of two methods, one per stopping mode.
Training runs a fixed number of Sinkhorn iterations (alternating row and
column scalings), arranged for speed without changing a bit of the plain
loop's output. Analysis runs to a marginal tolerance with damped Newton
steps on the semi-dual, a concave function of the m column potentials
alone, whose m x m Hessian is cheap; it converges quadratically where
Sinkhorn's rate degrades like 1/epsilon. Both start from the column
potential they are given, or from zero. Everything runs on log-sum-exp
reductions; the plain multiplicative form overflows for small epsilon.

Both methods run on one kernel (``_LogKernel``) that holds M / epsilon
items-major, as an (m, n+1) array, so that every reduction runs along the
long, contiguous user axis. Its sums add in the order numpy uses on the
(n+1, m) layout of the plain loop: a user's sum over the m items in numpy's
pairwise order for a contiguous run (one by one below 8 values, eight
strided partial sums up to 128, halves above), an item's sum over the users
one user after another (pairwise when m = 1, where the plain loop's column
is contiguous). So the Sinkhorn loop keeps every bit of the plain loop's
output.

When total capacity exceeds the number of users, the instance is extended
with one virtual user row of zero affinity carrying the surplus mass, which
restores equality marginals without perturbing gradients in the item
embeddings. ``cross_entropy_loss`` scores a coupling against an observed
hard matching; ``matched_cross_entropy`` computes the same score from a
solve's potentials, which training and evaluation use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class OtInstance:
    """Balanced transport instance, possibly extended with a slack row.

    ``n_users`` counts the real users; when ``affinity`` has one extra row it
    is the virtual user absorbing the unused capacity.

    Building one runs the range guard of every solve: unless
    ``max |M| < 2**53 * epsilon`` it raises a ``ValueError`` naming epsilon.
    From 2**53 on, M / epsilon has no unit left in float64, and a solve
    overflows further on, in the exponents or the Newton objective. The same
    comparison rejects an affinity that already holds inf or NaN, which the
    error then names as not finite, as no epsilon is at fault; only a failed
    comparison looks at which. Past it, dividing the affinity, or any price
    of at most about 2 max |M|, by epsilon cannot overflow, and both solves
    return finite potentials and a finite coupling, so their callers check
    neither.
    """

    affinity: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    epsilon: float
    n_users: int

    def __post_init__(self):
        # from 2**53 on float64 has no unit left; "not <" also fails a NaN affinity
        peak = np.abs(self.affinity).max()
        if not peak < 2.0**53 * self.epsilon:
            raise ValueError(f"affinity / epsilon overflows at epsilon={self.epsilon!r}"
                             if np.isfinite(peak) else "affinity is not finite")


def extend_with_slack(affinity, caps, epsilon: float) -> OtInstance:
    """Build a balanced instance; appends a zero-affinity virtual user when
    total capacity exceeds the number of users. The capacities are a
    validated integer vector with total at least the number of users. The
    instance's affinity is C-contiguous, the layout whose summation order
    the transport solve keeps; building it runs the range guard (see
    ``OtInstance``)."""
    n, m = affinity.shape
    # Python ints: an int64 sum wraps from 2**63 on
    total = sum(caps.tolist())
    if total == n:
        affinity = np.ascontiguousarray(affinity)
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
    """The state a transport solve ends in, converged or not.

    ``iterations`` counts Sinkhorn iterations in training mode and Newton
    steps in tolerance mode (see ``solve_ot``).

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
    log_b_init: np.ndarray | None = None,
) -> SinkhornResult:
    """Solve the transport problem ``inst``; the two stopping modes use two
    methods.

    - ``iterations`` (training mode): exactly that many Sinkhorn iterations,
      each a row update followed by a column update. The result is
      bit-identical to the plain loop (see ``_LogKernel``).
    - ``tol`` (analysis mode): damped Newton steps on the semi-dual in
      ``log_b`` (see ``_newton``) until the exact row and column errors of
      the returned coupling are at most ``tol``; ``MAX_NEWTON_STEPS`` caps
      the steps, and ``iterations`` in the result counts them. A run that
      hits the cap, or stalls because no step lowers the objective or the
      error, returns with ``converged=False`` rather than raising.

    ``iterations`` must be at least 1. ``log_b_init`` is the starting column
    potential; by default it is zero.
    """
    if (iterations is None) == (tol is None):
        raise ValueError("specify exactly one of iterations or tol")
    if tol is None and iterations < 1:
        raise ValueError("iterations must be at least 1")
    log_b = np.zeros(inst.affinity.shape[1]) if log_b_init is None else log_b_init
    if tol is not None:
        return _newton(inst, tol, log_b)
    return _sinkhorn(inst, iterations, log_b)


class _LogKernel:
    """The row and column log-sum-exps over ``M / epsilon``, items-major.

    ``log_kt`` is ``(M / epsilon).T``, a C-contiguous (m, n+1) copy made once
    per solve, finite by the instance's range guard (see ``OtInstance``).

    ``buf`` is one scratch buffer of ``log_kt``'s shape. Every step of a
    log-sum-exp (the add, the max, the subtract, the ``exp`` and the sums)
    runs on ``buf``, where each reduction runs along the long, contiguous
    axis. Elementwise steps and maxima give the same bits in any layout. The
    sums add in the order of ``sum`` on the plain loop's C-ordered (n+1, m)
    layout, so every output bit stays the same:

    - per user, over the items (``row_lse``, the coupling's row sums):
      numpy's pairwise order for a contiguous run of m values
      (``_sum_over_items``);
    - per item, over the users (``col_lse``, the coupling's column sums):
      one user after another, as ``np.add.accumulate`` adds along a row;
      with m = 1 the plain loop's column is contiguous, and both sum it
      pairwise (``_sum_over_users``).

    ``coupling`` returns a fresh C-contiguous (n+1, m) array, so callers see
    the plain loop's layout and ``buf`` stays free for the next call.
    """

    def __init__(self, inst: OtInstance):
        self.inst = inst
        self.log_kt = np.ascontiguousarray(inst.affinity.T) / inst.epsilon
        self.buf = np.empty_like(self.log_kt)

    def row_lse(self, log_b) -> np.ndarray:
        buf = np.add(self.log_kt, log_b[:, None], out=self.buf)
        shift = buf.max(axis=0)
        np.subtract(buf, shift, out=buf)
        out = np.log(_sum_over_items(np.exp(buf, out=buf)))
        out += shift
        return out

    def col_lse(self, log_a) -> np.ndarray:
        buf = np.add(self.log_kt, log_a, out=self.buf)
        shift = buf.max(axis=1)
        np.subtract(buf, shift[:, None], out=buf)
        out = np.log(_sum_over_users(np.exp(buf, out=buf)))
        out += shift
        return out

    def coupling(self, log_a, log_b) -> tuple[np.ndarray, np.ndarray, float]:
        """The product-form coupling, its column sums and its exact marginal
        error. The coupling is a fresh C-contiguous (n+1, m) array."""
        buf = np.add(self.log_kt, log_a, out=self.buf)
        np.add(buf, log_b[:, None], out=buf)
        np.exp(buf, out=buf)
        pi = buf.T.copy()
        row_err = np.max(np.abs(_sum_over_items(buf) - self.inst.row_masses))
        col_sums = _sum_over_users(buf)
        col_err = np.max(np.abs(col_sums - self.inst.col_masses))
        return pi, col_sums, float(max(row_err, col_err))


# numpy sums a contiguous run pairwise: one by one below 8 values, in 8
# strided partial sums up to this many, and by halves above it
_PAIRWISE_BLOCK = 128


def _sum_over_items(buf, lo=0, hi=None) -> np.ndarray:
    """Sum of ``buf[lo:hi]`` over its rows, one total per user, in the order
    numpy's pairwise summation adds a contiguous run of ``hi - lo`` values:
    the order of ``sum(axis=1)`` on the (n+1, m) layout."""
    hi = len(buf) if hi is None else hi
    count = hi - lo
    if count < 8:
        out = buf[lo].copy() if count == 1 else buf[lo] + buf[lo + 1]
        for i in range(lo + 2, hi):
            out += buf[i]
        return out
    if count <= _PAIRWISE_BLOCK:
        tail = hi - count % 8
        r = buf[lo:lo + 8] + buf[lo + 8:lo + 16] if count >= 16 else buf[lo:lo + 8].copy()
        for i in range(lo + 16, tail, 8):
            r += buf[i:i + 8]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(tail, hi):
            out += buf[i]
        return out
    half = count // 2
    half -= half % 8
    return _sum_over_items(buf, lo, lo + half) + _sum_over_items(buf, lo + half, hi)


def _sum_over_users(buf) -> np.ndarray:
    """Sum of each row of ``buf``, one total per item, in the order of
    ``sum(axis=0)`` on the (n+1, m) layout: one user after another, or, with
    a single item, pairwise along the then contiguous column. Overwrites
    ``buf`` with its running sums."""
    if len(buf) == 1:
        return buf.sum(axis=1)
    return np.add.accumulate(buf, axis=1, out=buf)[:, -1].copy()


def _sinkhorn(inst: OtInstance, iterations: int, log_b) -> SinkhornResult:
    """Fixed-budget Sinkhorn scaling."""
    kernel = _LogKernel(inst)
    log_r = np.log(inst.row_masses)
    log_c = np.log(inst.col_masses)
    for _ in range(iterations):
        log_a = log_r - kernel.row_lse(log_b)
        log_b = log_c - kernel.col_lse(log_a)
    pi, _, error = kernel.coupling(log_a, log_b)
    return SinkhornResult(coupling=pi, log_a=log_a, log_b=log_b, iterations=iterations,
                          marginal_error=error, converged=True, n_users=inst.n_users)


# Newton line search: the Armijo fraction of the predicted decrease, and the
# halvings of a step tried before the solve counts as stalled
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# rounding in the objective's value, relative to the sum of its terms' magnitudes
_VALUE_ROUNDING = 1e-14
# the Newton steps a tolerance solve takes at most before it returns unconverged
MAX_NEWTON_STEPS = 10_000


class _Iterate(NamedTuple):
    log_a: np.ndarray
    log_b: np.ndarray
    coupling: np.ndarray
    col_sums: np.ndarray
    error: float
    value: float
    rounding: float


def _newton(inst: OtInstance, tol: float, log_b) -> SinkhornResult:
    """Damped Newton descent on the negated semi-dual

        G(b) = sum_i r_i * LSE_j(M_ij / epsilon + b_j) - c . b,

    a convex function of the m column potentials alone. At each ``b``,
    ``log_a = log r - LSE`` makes the row marginals exact, the gradient is
    ``colsum(pi) - c`` and the Hessian ``diag(colsum pi) - pi^T diag(1/r) pi``.
    That Hessian is singular along the all-ones vector, which does not change
    G, so ``1/m`` is added to every entry. Levenberg-Marquardt damping keeps
    the step bounded where an item has no fractional user, and vanishes with
    the gradient, so the last steps approach pure Newton (Brauer, Clason,
    Lorenz & Wirth 2017; Cuturi & Peyre 2018). Up to epsilon = 1 it is
    ``||g||_inf * I`` on the potentials in affinity units, ``epsilon * log_b``,
    which is ``epsilon * ||g||_inf * I`` here: a damped step then moves each
    potential by up to about one unit of affinity, not one unit of ``log_b``,
    which at small epsilon would take hundreds of steps. Above epsilon = 1 a
    unit of affinity is less than a unit of ``log_b``, and steps that small
    would grow in number like epsilon; there the damping stays
    ``||g||_inf * I``, a step of up to about one unit of ``log_b``.

    A step is halved until G drops by the Armijo fraction. Near the optimum
    G's drop is below its own rounding; a step is then taken when it lowers
    the exact marginal error. When no halving is taken either way, the solve
    stops at once, unconverged.
    """
    kernel = _LogKernel(inst)
    r, c = inst.row_masses, inst.col_masses
    log_r = np.log(r)
    m = len(c)

    def iterate(log_b) -> _Iterate:
        lse = kernel.row_lse(log_b)
        log_a = log_r - lse
        pi, col_sums, error = kernel.coupling(log_a, log_b)
        rounding = _VALUE_ROUNDING * (r @ np.abs(lse) + c @ np.abs(log_b))
        return _Iterate(log_a, log_b, pi, col_sums, error, r @ lse - c @ log_b, rounding)

    here = iterate(log_b)
    steps = 0
    while here.error > tol and steps < MAX_NEWTON_STEPS:
        grad = here.col_sums - c
        pi = here.coupling
        hess = np.diag(here.col_sums) - pi.T @ (pi / r[:, None]) + 1.0 / m
        hess[np.diag_indices(m)] += min(inst.epsilon, 1.0) * np.abs(grad).max()
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        slope = grad @ direction
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = iterate(here.log_b + t * direction)
            drop = here.value - trial.value
            if drop > here.rounding:
                taken = drop >= -_ARMIJO * t * slope
            else:
                taken = drop >= -here.rounding and trial.error < here.error
            if taken:
                break
            t /= 2
        else:
            break
        here = trial
        steps += 1
    return SinkhornResult(coupling=here.coupling, log_a=here.log_a, log_b=here.log_b,
                          iterations=steps, marginal_error=here.error,
                          converged=here.error <= tol, n_users=inst.n_users)


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


def matched_cross_entropy(inst: OtInstance, result: SinkhornResult, assign) -> float:
    """``cross_entropy_loss`` of ``result``'s coupling, from its potentials.

    Takes log pi[i, assign[i]] as log_a[i] + M[i, assign[i]] / epsilon +
    log_b[assign[i]], the exponent of the product form, so a matched entry
    that underflows to 0 in the coupling (small epsilon) still scores finite.
    """
    users = np.arange(len(assign))
    log_k = inst.affinity[users, assign] / inst.epsilon
    return float(-(result.log_a[users] + log_k + result.log_b[assign]).sum())
