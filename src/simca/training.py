"""Item-embedding learning from an observed capacity-constrained matching.

Each epoch recomputes the affinity matrix, solves the entropy-regularized
transport problem with a fixed Sinkhorn budget, and takes an Adam step on the
cross-entropy between the observed hard matching and the soft coupling:

    L(V) = -sum_i log pi[i, sigma(i)]

with each log pi taken from the solve's log-domain potentials, so the loss
stays finite where pi itself underflows at small epsilon. Its gradient in the
item embeddings has the closed form

    grad V_j = ((1 - alpha) / epsilon) * sum_i (pi - sigma)[i, j] * U_i

evaluated at the coupling the truncated solver returns; no differentiation
through the scaling loop. The symmetric expression handles joint learning of
user embeddings when those are unknown.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import round_coupling
from .metrics import f1_scores, mean_embedding_distance
from .model import (Dataset, NonnegInt, PositiveFloat, PositiveInt, UnitFloat, check_fields,
                    compute_affinity, matching_matrix)
# cross_entropy_loss stays importable here for the tests and perfbench's tracer
from .sinkhorn import cross_entropy_loss, extend_with_slack, matched_cross_entropy, solve_ot  # noqa: F401

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run."""

    epsilon: PositiveFloat = 0.1
    alpha: UnitFloat = 0.3
    sinkhorn_iters: PositiveInt = 10
    learning_rate: PositiveFloat = 0.01
    epochs: NonnegInt = 400
    seed: NonnegInt = 0
    joint_users: bool = False
    eval_every: PositiveInt = 1

    def __post_init__(self):
        check_fields(self)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter matrix."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(first_moment=np.zeros(shape), second_moment=np.zeros(shape))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new parameters and state."""
    t = state.step + 1
    m = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.second_moment + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(first_moment=m, second_moment=v, step=t)


def matching_with_slack(assign, caps) -> np.ndarray:
    """0/1 matching matrix, extended with a fractional row carrying the
    per-item residual capacity when total capacity exceeds the user count."""
    caps = np.asarray(caps, dtype=np.int64)
    sigma = matching_matrix(assign, len(caps))
    residual = caps - sigma.sum(axis=0)
    if residual.sum() > 0:
        sigma = np.vstack([sigma, residual[None, :]])
    return sigma


def loss_gradient_items(users, assign, coupling, alpha: float, epsilon: float) -> np.ndarray:
    """Closed-form gradient of the cross-entropy loss in the item embeddings.

    ``coupling`` is the user coupling (n x m), without the slack row.
    """
    return ((1.0 - alpha) / epsilon) * _minus_matching(coupling, assign).T @ users


def loss_gradient_users(items, assign, coupling, alpha: float, epsilon: float) -> np.ndarray:
    """Symmetric gradient in the user embeddings, for joint learning."""
    return ((1.0 - alpha) / epsilon) * _minus_matching(coupling, assign) @ items


def _minus_matching(coupling, assign) -> np.ndarray:
    """``coupling - matching_matrix(assign, m)``, as a copy of the coupling
    less 1.0 at the matched entries: x - 0.0 is x. The copy is C-contiguous,
    so its ``ravel`` is a view that takes the matched entries by flat index."""
    diff = coupling.copy()
    diff.ravel()[np.arange(0, diff.size, diff.shape[1]) + assign] -= 1.0
    return diff


def init_embeddings(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Random rows on the unit sphere."""
    draws = rng.normal(size=(rows, dim))
    return draws / np.linalg.norm(draws, axis=1, keepdims=True)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    f1_micro: float
    f1_macro: float
    mean_embed_dist: float
    grad_norm: float


@dataclass(frozen=True)
class TrainResult:
    items: np.ndarray
    users: np.ndarray | None
    history: list[EpochRecord] = field(default_factory=list)


def _epoch(dataset: Dataset, config: TrainConfig, params: list[np.ndarray],
           log_b: np.ndarray | None, epoch: int):
    """One epoch at the embeddings ``params``: the items, then the users in joint mode.

    Returns the epoch's record, the loss gradient of each parameter, and the
    solve's column potentials, which warm-start the next epoch. Only every
    ``config.eval_every``-th epoch and the final one are scored: the others
    skip the LAP rounding, F1 and embedding distance, which never feed the
    update, and record NaN for them. The transport instance's range guard is
    the epoch's one check: it rejects an epsilon too small for the affinity,
    and embeddings that blew up, whose affinity it names as not finite; its
    error is re-raised as ``training diverged at epoch N: ...``. Past it, the
    plan, the loss and the potentials are finite.
    """
    items = params[0]
    users = params[1] if config.joint_users else dataset.users
    sigma = dataset.matching
    affinity = compute_affinity(users, items, dataset.distances, config.alpha)
    try:
        inst = extend_with_slack(affinity, dataset.capacities, config.epsilon)
        # Warm start: the column scalings carry across epochs. The embeddings
        # move slowly per step, so the fixed iteration budget then tracks the
        # converged coupling and the closed-form gradient stays unbiased. With
        # cold restarts the truncated coupling is systematically off and the
        # optimizer drifts along weakly identified directions.
        result = solve_ot(inst, iterations=config.sinkhorn_iters, log_b_init=log_b)
    except ValueError as exc:
        raise ValueError(f"training diverged at epoch {epoch}: {exc}") from None
    pi = result.user_coupling

    loss = matched_cross_entropy(result, sigma)
    grads = [loss_gradient_items(users, sigma, pi, config.alpha, config.epsilon)]
    if config.joint_users:
        grads.append(loss_gradient_users(items, sigma, pi, config.alpha, config.epsilon))

    micro = macro = dist = math.nan
    if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
        predicted = round_coupling(pi, dataset.capacities)
        micro, macro, _ = f1_scores(sigma, predicted, dataset.n_items)
        if dataset.items_truth is not None:
            dist = mean_embedding_distance(items, dataset.items_truth)
    grad_norm = math.sqrt(sum(float(np.add.reduce(grad**2, None)) for grad in grads))
    return EpochRecord(epoch, loss, micro, macro, dist, grad_norm), grads, result.log_b


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Run the learning loop for ``config.epochs`` epochs.

    History records the state seen at the top of each epoch (loss, allocation
    F1 from rounding the current coupling, distance to ground-truth item
    embeddings when available, gradient norm), before that epoch's update.
    F1 and distance are scored every ``config.eval_every`` epochs and on the
    final one, and are NaN on the others; the solve, the loss and the update
    run on every epoch, so the learned embeddings do not depend on
    ``eval_every``. Deterministic given the config seed. A run whose
    embeddings stop being finite fails as ``training diverged at epoch N``,
    at the first epoch that sees them or, after the last update, with N the
    epoch count.
    """
    rng = np.random.default_rng(config.seed)
    params = [init_embeddings(rng, dataset.n_items, dataset.dim)]
    if config.joint_users:
        params.append(init_embeddings(rng, dataset.n_users, dataset.dim))
    states = [AdamState.zeros(param.shape) for param in params]
    history: list[EpochRecord] = []
    log_b = None

    for epoch in range(config.epochs):
        record, grads, log_b = _epoch(dataset, config, params, log_b, epoch)
        history.append(record)
        for k, grad in enumerate(grads):
            params[k], states[k] = adam_step(params[k], grad, states[k], config.learning_rate)
    # an epoch's solve rejects non-finite embeddings, but no epoch follows the last update
    if not all(np.isfinite(param).all() for param in params):
        raise ValueError(f"training diverged at epoch {config.epochs}: non-finite embeddings")
    return TrainResult(params[0], params[1] if config.joint_users else None, history)
