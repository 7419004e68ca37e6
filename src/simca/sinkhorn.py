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
pairwise order for a contiguous run (one by one below 8 values, as numpy's
own sum over the items-major rows adds them; eight strided partial sums up
to 128; halves above), an item's sum over the users one user after another
(pairwise when m = 1, where the plain loop's column is contiguous). Its
maxima and sums are numpy's ufunc reductions called directly, with no
wrapper in between. So the Sinkhorn loop keeps every bit of the plain loop's
output. Each solve builds its own kernel, which allocates the solve's
buffers once: the (m, n+1) scratch array, both potentials, every
log-sum-exp's shift, sum and output, and the marginal error's terms. Both
half-steps (``_scale``) write every ufunc's output into them, so an
iteration allocates nothing. A Newton solve also allocates its m x m
Hessian, gradient and scaled plan once, and each trial writes its
potential into the kernel's; what a trial still allocates is its coupling,
which the result keeps, in the plain loop's (n+1, m) layout. The Hessian
reads the coupling in that layout too: its product computed items-major
rounds differently. The start is copied in, and the result owns its
coupling and potentials, so a warm-started chain of solves never writes
into an earlier result. A solve's marginal error is computed from its plan
when read, so a fixed-budget solve, whose caller never reads it, skips it.

When total capacity exceeds the number of users, the instance is extended
with one virtual user row of zero affinity carrying the surplus mass, which
restores equality marginals without perturbing gradients in the item
embeddings. ``cross_entropy_loss`` scores a coupling against an observed
hard matching; ``matched_cross_entropy`` computes the same score from a
solve's potentials, which training and evaluation use.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        peak = np.maximum.reduce(np.abs(self.affinity), None)
        if not peak < 2.0**53 * self.epsilon:
            raise ValueError(f"affinity / epsilon overflows at epsilon={self.epsilon!r}"
                             if np.isfinite(peak) else "affinity is not finite")


def extend_with_slack(affinity, caps, epsilon: float) -> OtInstance:
    """Build a balanced instance; appends a zero-affinity virtual user when
    total capacity exceeds the number of users. The capacities are a
    validated integer vector with total at least the number of users. The
    instance's affinity is a fresh C-contiguous array, the layout whose
    summation order the transport solve keeps; building it runs the range
    guard (see ``OtInstance``)."""
    n, m = affinity.shape
    # Python ints: an int64 sum wraps from 2**63 on
    total = sum(caps.tolist())
    extended = np.zeros((n + (total > n), m))
    extended[:n] = affinity
    rows = np.ones(len(extended))
    rows[n:] = float(total - n)
    return OtInstance(
        affinity=extended,
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

    ``coupling`` includes the virtual slack row when the instance ``inst``
    carries one; ``user_coupling`` strips it. The product form
    coupling = exp(log_a[:, None] + M / epsilon + log_b[None, :]) holds exactly
    by construction.

    ``marginal_error`` is computed from the coupling and ``inst``'s masses
    when read, as training never reads it.
    """

    coupling: np.ndarray
    log_a: np.ndarray
    log_b: np.ndarray
    iterations: int
    converged: bool
    inst: OtInstance

    @property
    def user_coupling(self) -> np.ndarray:
        return self.coupling[: self.inst.n_users]

    @property
    def marginal_error(self) -> float:
        """The coupling's largest row or column sum error. ``sum`` on the
        (n+1, m) layout adds in the kernel's orders, so a tolerance solve
        reads the error it stopped on, bit for bit."""
        row_err = np.max(np.abs(self.coupling.sum(axis=1) - self.inst.row_masses))
        col_err = np.max(np.abs(self.coupling.sum(axis=0) - self.inst.col_masses))
        return float(max(row_err, col_err))


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
    if tol is not None:
        return _newton(inst, tol, log_b_init)
    return _sinkhorn(inst, iterations, log_b_init)


class _LogKernel:
    """The row and column log-sum-exps over ``M / epsilon``, items-major,
    and the buffers a solve runs in.

    ``log_kt`` is ``(M / epsilon).T``, a C-contiguous (m, n+1) array divided
    once per solve, finite by the instance's range guard (see ``OtInstance``).

    A solve builds one kernel, which allocates every array the solve's
    iterations use:

    - ``buf``, one scratch array of ``log_kt``'s shape;
    - ``log_a`` and ``log_b``, the potentials; ``log_b`` starts as a copy of
      the start it is given (zero by default), so a solve never writes into
      its caller's array;
    - ``row_lse``, ``row_max`` and ``row_sum`` (n+1 each), and ``col_lse``,
      ``col_max`` and ``col_sum`` (m each): each log-sum-exp, its shift and
      its sum; and ``log_r`` and ``log_c``, the logs of the masses;
    - ``terms`` (n+1+m), one scratch per user (``user_terms``) and one per
      item (``item_terms``) for the marginal error's terms in ``coupling``,
      so that a single maximum gives the error, and for a Newton solve's
      rounding and damping terms.

    ``_scale`` runs the half-steps on these buffers, every ufunc writing
    into them through a positional ``out``, so an iteration allocates
    nothing. Every step of a log-sum-exp (the add, the max, the subtract,
    the ``exp`` and the sums) runs on ``buf``, where each reduction runs
    along the long, contiguous axis. Elementwise steps and maxima give the
    same bits in any layout. The sums add in the order of ``sum`` on the
    plain loop's C-ordered (n+1, m) layout, so every output bit stays the
    same:

    - per user, over the items (the row half-step, the coupling's row sums):
      numpy's pairwise order for a contiguous run of m values
      (``_sum_over_items``), which below 8 items is ``np.add.reduce`` over
      ``buf``'s leading axis, one item after another;
    - per item, over the users (the column half-step, the coupling's column
      sums): one user after another, as ``np.add.accumulate`` adds along a
      row; with m = 1 the plain loop's column is contiguous, and both sum it
      pairwise (``_sum_over_users``).

    ``plan`` and ``coupling`` return a fresh C-contiguous (n+1, m) array, so
    callers see the plain loop's layout and ``buf`` stays free for the next
    call. A Newton solve's Hessian needs the plan in that layout: its
    ``pi.T @ (pi / r)`` and the items-major ``P @ (P / r).T`` are the same
    product, but BLAS rounds them differently.

    A result owns its coupling and potentials: the coupling is ``plan``'s
    fresh array, and ``log_a`` and ``log_b`` are the kernel's own (or, for
    a Newton solve, its last iterate's ``log_b``), which nothing writes once
    the solve returns and drops its kernel. Buffers live per solve, never
    per run: the next solve builds a kernel of its own, and copies in a
    start taken from an earlier result.
    """

    def __init__(self, inst: OtInstance, log_b=None):
        self.inst = inst
        self.log_kt = np.divide(inst.affinity.T, inst.epsilon, order="C")
        self.buf = np.empty_like(self.log_kt)
        m, users = self.log_kt.shape
        self.log_r = np.log(inst.row_masses)
        self.log_c = np.log(inst.col_masses)
        self.log_a = np.empty(users)
        self.log_b = np.zeros(m) if log_b is None else np.array(log_b, np.float64)
        self.row_lse, self.row_max, self.row_sum = np.empty((3, users))
        self.col_lse, self.col_max, self.col_sum = np.empty((3, m))
        self.terms = np.empty(users + m)
        self.user_terms, self.item_terms = self.terms[:users], self.terms[users:]

    def plan(self, log_a, log_b) -> np.ndarray:
        """The product-form coupling, a fresh C-contiguous (n+1, m) array;
        ``buf`` keeps its transpose."""
        buf = np.add(self.log_kt, log_a, out=self.buf)
        np.add(buf, log_b[:, None], out=buf)
        return np.exp(buf, out=buf).T.copy()

    def coupling(self, log_a, log_b) -> tuple[np.ndarray, np.ndarray, float]:
        """The ``plan``, its column sums and its exact marginal error, the
        largest of the row and column errors, which go into ``terms``."""
        pi = self.plan(log_a, log_b)
        np.subtract(_sum_over_items(self.buf, self.row_sum), self.inst.row_masses, self.user_terms)
        col_sums = _sum_over_users(self.buf).copy()
        np.subtract(col_sums, self.inst.col_masses, self.item_terms)
        terms = self.terms
        return pi, col_sums, float(np.maximum.reduce(np.abs(terms, terms)))


# numpy sums a contiguous run pairwise: one by one below 8 values, as its
# sum over a leading axis adds the rows, in 8 strided partial sums up to
# this many, and by halves above it
_PAIRWISE_BLOCK = 128


def _sum_over_items(buf, out) -> np.ndarray:
    """Sum of ``buf`` over its rows, one total per user, in the order numpy's
    pairwise summation adds a contiguous run of ``len(buf)`` values: the
    order of ``sum(axis=1)`` on the (n+1, m) layout. Below 8 rows that order
    is one row after another, which is how ``np.add.reduce`` adds the rows
    of this layout, into ``out``; from 8 rows on the total is a fresh array."""
    count = len(buf)
    if count < 8:
        return np.add.reduce(buf, 0, None, out)
    if count <= _PAIRWISE_BLOCK:
        tail = count - count % 8
        r = buf[:8].copy()
        for i in range(8, tail, 8):
            r += buf[i:i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(tail, count):
            total += buf[i]
        return total
    half = count // 2
    half -= half % 8
    return _sum_over_items(buf[:half], None) + _sum_over_items(buf[half:], None)


def _sum_over_users(buf) -> np.ndarray:
    """Sum of each row of ``buf``, one total per item, in the order of
    ``sum(axis=0)`` on the (n+1, m) layout: one user after another, or, with
    a single item, pairwise along the then contiguous column. Overwrites
    ``buf`` with its running sums, whose last column it returns as a view."""
    if len(buf) == 1:
        return np.add.reduce(buf, 1)
    return np.add.accumulate(buf, 1, None, buf)[:, -1]


def _scale(kernel: _LogKernel, half_steps: int) -> None:
    """Run ``half_steps`` alternating half-steps on ``kernel``'s buffers, a
    row half-step first: twice the iterations of a Sinkhorn solve, or one
    for the row potentials at ``kernel.log_b`` that a Newton iterate reads.

    The row half-step sets ``log_a = log_r - row_lse``, with ``row_lse`` the
    log-sum-exp over the items of ``log_kt + log_b``; the column half-step
    sets ``log_b = log_c - col_lse`` over the users of ``log_kt + log_a``.
    Every array is bound to a local before the loop, and every ufunc writes
    into its buffer, so the loop looks up no attribute and allocates nothing
    (``_sum_over_items`` from 8 items on excepted).
    """
    k = kernel
    log_kt, buf, log_a, log_b = k.log_kt, k.buf, k.log_a, k.log_b
    log_r, row_lse, row_max, row_sum = k.log_r, k.row_lse, k.row_max, k.row_sum
    log_c, col_lse, col_max, col_sum = k.log_c, k.col_lse, k.col_max, k.col_sum
    log_b_col, col_shift = log_b[:, None], col_max[:, None]
    items = len(log_kt)
    few_items, one_item = items < 8, items == 1
    # np.add.accumulate leaves each item's total in buf's last column
    user_sums = col_sum if one_item else buf[:, -1]
    add, subtract, exp, log = np.add, np.subtract, np.exp, np.log
    largest, total, running = np.maximum.reduce, np.add.reduce, np.add.accumulate
    for step in range(half_steps):
        if step & 1 == 0:
            add(log_kt, log_b_col, buf)
            largest(buf, 0, None, row_max)
            subtract(buf, row_max, buf)
            exp(buf, buf)
            log(total(buf, 0, None, row_sum) if few_items else _sum_over_items(buf, None), row_lse)
            add(row_lse, row_max, row_lse)
            subtract(log_r, row_lse, log_a)
        else:
            add(log_kt, log_a, buf)
            largest(buf, 1, None, col_max)
            subtract(buf, col_shift, buf)
            exp(buf, buf)
            if one_item:
                total(buf, 1, None, col_sum)
            else:
                running(buf, 1, None, buf)
            log(user_sums, col_lse)
            add(col_lse, col_max, col_lse)
            subtract(log_c, col_lse, log_b)


def _sinkhorn(inst: OtInstance, iterations: int, log_b) -> SinkhornResult:
    """Fixed-budget Sinkhorn scaling from the start ``log_b``."""
    kernel = _LogKernel(inst, log_b)
    _scale(kernel, 2 * iterations)
    return SinkhornResult(coupling=kernel.plan(kernel.log_a, kernel.log_b), log_a=kernel.log_a,
                          log_b=kernel.log_b, iterations=iterations, converged=True, inst=inst)


# Newton line search: the Armijo fraction of the predicted decrease, and the
# halvings of a step tried before the solve counts as stalled
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# rounding in the objective's value, relative to the sum of its terms' magnitudes
_VALUE_ROUNDING = 1e-14
# the Newton steps a tolerance solve takes at most before it returns unconverged
MAX_NEWTON_STEPS = 10_000


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

    The solve allocates its buffers once, next to its kernel's: the m x m
    Hessian and a view of its diagonal, the gradient and its negation, and
    an (n+1, m) array for ``pi / r``; the kernel's ``user_terms`` and
    ``item_terms`` take the rounding and damping terms. Each trial writes
    ``b + t * direction`` into the kernel's ``log_b``, where the row
    half-step reads it; a taken trial is copied into the solve's own
    ``here_b``, which the result keeps, and only then is its value's
    rounding computed. The Hessian is built in place as ``-(pi^T (pi / r))``
    plus the column sums on the diagonal, plus ``1/m``, plus the damping on
    the diagonal: the bits of ``diag(colsum pi) - pi^T (pi / r) + 1/m``, as
    ``a + (-b)`` is ``a - b`` and ``0 - x`` is ``-x`` but for the sign of a
    zero, which adding ``1/m`` drops. The dot products of two vectors are
    ``ndarray.dot``, the BLAS dot that ``@`` calls too, at less overhead. A
    trial still allocates its coupling, which the result and the Hessian
    read in the plain loop's layout (see ``_LogKernel``).
    """
    kernel = _LogKernel(inst, log_b)
    r, c = inst.row_masses, inst.col_masses
    log_a, lse, trial_b = kernel.log_a, kernel.row_lse, kernel.log_b
    user_terms, item_terms = kernel.user_terms, kernel.item_terms
    m = len(c)
    r_col, damping = r[:, None], min(inst.epsilon, 1.0)
    scaled = np.empty(kernel.buf.shape[::-1])
    hess = np.empty((m, m))
    diagonal = hess.reshape(-1)[::m + 1]
    grad, rhs = np.empty((2, m))
    add, subtract, multiply, divide, negative = np.add, np.subtract, np.multiply, np.divide, np.negative
    absolute, matmul, largest = np.abs, np.matmul, np.maximum.reduce

    def value_rounding() -> float:
        """The value's rounding at the iterate whose row half-step ran last."""
        return _VALUE_ROUNDING * (r.dot(absolute(lse, user_terms)) + c.dot(absolute(trial_b, item_terms)))

    # the current iterate's log_b; the kernel's is the trial's, which the
    # row half-step reads
    here_b = trial_b.copy()
    _scale(kernel, 1)
    pi, col_sums, error = kernel.coupling(log_a, trial_b)
    value, rounding = r.dot(lse) - c.dot(trial_b), value_rounding()
    steps = 0
    while error > tol and steps < MAX_NEWTON_STEPS:
        subtract(col_sums, c, grad)
        # diag(col_sums) - pi^T (pi / r) + 1/m, bit for bit (see above)
        matmul(pi.T, divide(pi, r_col, scaled), hess)
        negative(hess, hess)
        add(diagonal, col_sums, diagonal)
        add(hess, 1.0 / m, hess)
        add(diagonal, damping * largest(absolute(grad, item_terms)), diagonal)
        try:
            direction = np.linalg.solve(hess, negative(grad, rhs))
        except np.linalg.LinAlgError:
            break
        slope = grad.dot(direction)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            add(here_b, multiply(direction, t, trial_b), trial_b)
            _scale(kernel, 1)
            trial_pi, trial_sums, trial_error = kernel.coupling(log_a, trial_b)
            trial_value = r.dot(lse) - c.dot(trial_b)
            drop = value - trial_value
            if drop > rounding:
                taken = drop >= -_ARMIJO * t * slope
            else:
                taken = drop >= -rounding and trial_error < error
            if taken:
                break
            t /= 2
        else:
            # the kernel's log_a is the last trial's: recompute the current one's
            np.copyto(trial_b, here_b)
            _scale(kernel, 1)
            break
        pi, col_sums, error, value = trial_pi, trial_sums, trial_error, trial_value
        np.copyto(here_b, trial_b)
        rounding = value_rounding()
        steps += 1
    return SinkhornResult(coupling=pi, log_a=log_a, log_b=here_b,
                          iterations=steps, converged=error <= tol, inst=inst)


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


def matched_cross_entropy(result: SinkhornResult, assign) -> float:
    """``cross_entropy_loss`` of ``result``'s coupling, from its potentials.

    Takes log pi[i, assign[i]] as log_a[i] + M[i, assign[i]] / epsilon +
    log_b[assign[i]], the exponent of the product form, so a matched entry
    that underflows to 0 in the coupling (small epsilon) still scores finite.
    """
    log_k = result.inst.affinity[np.arange(len(assign)), assign] / result.inst.epsilon
    return float(-np.add.reduce(result.log_a[:len(assign)] + log_k + result.log_b[assign]))
