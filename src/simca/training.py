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
from .model import AffinityParams, Dataset, check_fields, compute_affinity, matching_matrix
# cross_entropy_loss stays importable here for the tests and perfbench's tracer
from .sinkhorn import cross_entropy_loss, extend_with_slack, matched_cross_entropy, solve_ot  # noqa: F401

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run."""

    epsilon: float = 0.1
    alpha: float = 0.3
    sinkhorn_iters: int = 10
    learning_rate: float = 0.01
    epochs: int = 400
    seed: int = 0
    joint_users: bool = False

    def __post_init__(self):
        check_fields(self)
        AffinityParams(self.alpha, self.epsilon)
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


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
    diff = coupling - matching_matrix(assign, coupling.shape[1])
    return ((1.0 - alpha) / epsilon) * diff.T @ users


def loss_gradient_users(items, assign, coupling, alpha: float, epsilon: float) -> np.ndarray:
    """Symmetric gradient in the user embeddings, for joint learning."""
    diff = coupling - matching_matrix(assign, coupling.shape[1])
    return ((1.0 - alpha) / epsilon) * diff @ items


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


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Run the learning loop for ``config.epochs`` epochs.

    History records the state seen at the top of each epoch (loss, allocation
    F1 from rounding the current coupling, distance to ground-truth item
    embeddings when available, gradient norm), before that epoch's update.
    Deterministic given the config seed.
    """
    rng = np.random.default_rng(config.seed)
    n, m, d = dataset.n_users, dataset.n_items, dataset.dim
    items = init_embeddings(rng, m, d)
    users = dataset.users
    learn_users = config.joint_users
    if learn_users:
        users = init_embeddings(rng, n, d)

    item_state = AdamState.zeros(items.shape)
    user_state = AdamState.zeros(users.shape) if learn_users else None
    caps = dataset.capacities
    sigma = dataset.matching
    history: list[EpochRecord] = []
    log_b_carry: np.ndarray | None = None

    for epoch in range(config.epochs):
        affinity = compute_affinity(users, items, dataset.distances, config.alpha)
        inst = extend_with_slack(affinity, caps, config.epsilon)
        # Warm start: the column scalings carry across epochs. The embeddings
        # move slowly per step, so the fixed iteration budget then tracks the
        # converged coupling and the closed-form gradient stays unbiased. With
        # cold restarts the truncated coupling is systematically off and the
        # optimizer drifts along weakly identified directions.
        result = solve_ot(inst, iterations=config.sinkhorn_iters, log_b_init=log_b_carry)
        log_b_carry = result.log_b
        pi = result.user_coupling

        loss = matched_cross_entropy(inst, result, sigma)
        if not math.isfinite(loss):
            raise ValueError(f"training diverged at epoch {epoch}: non-finite loss")
        grad_items = loss_gradient_items(users, sigma, pi, config.alpha, config.epsilon)
        grad_users = None
        grad_sq = float(np.sum(grad_items**2))
        if learn_users:
            grad_users = loss_gradient_users(items, sigma, pi, config.alpha, config.epsilon)
            grad_sq += float(np.sum(grad_users**2))

        predicted = round_coupling(pi, caps)
        micro, macro, _ = f1_scores(sigma, predicted, m)
        if dataset.items_truth is not None:
            dist = mean_embedding_distance(items, dataset.items_truth)
        else:
            dist = float("nan")
        history.append(
            EpochRecord(
                epoch=epoch,
                loss=loss,
                f1_micro=micro,
                f1_macro=macro,
                mean_embed_dist=dist,
                grad_norm=float(np.sqrt(grad_sq)),
            )
        )

        items, item_state = adam_step(items, grad_items, item_state, config.learning_rate)
        if learn_users:
            users, user_state = adam_step(users, grad_users, user_state, config.learning_rate)

    return TrainResult(
        items=items,
        users=users if learn_users else None,
        history=history,
    )
