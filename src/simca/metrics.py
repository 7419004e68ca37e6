"""Evaluation of learned embeddings against an observed allocation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import round_coupling, sorted_prices
from .model import AffinityParams, Dataset, as_matrix, compute_affinity
from .sinkhorn import extend_with_slack, matched_cross_entropy, solve_ot

# marginal error at which evaluate's transport solve stops, within solve_ot's step cap
EVAL_TOL = 1e-10
# below this epsilon evaluate starts its solve from the LAP's sorted-phase prices
PRICE_START_BELOW = 0.005


def f1_scores(truth, pred, m: int) -> tuple[float, float, np.ndarray]:
    """Per-item F1 from the m-class confusion counts.

    Returns (micro, macro, per_item). Micro-averaged F1 reduces to plain
    accuracy for single-label assignments; macro is the unweighted mean of
    per-item scores, where an item with no true and no predicted users counts
    as a perfect 1.
    """
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    hit = truth == pred
    tp = np.bincount(truth[hit], minlength=m)[:m]
    # 2 tp + fp + fn: every true and every predicted user of the item
    support = np.bincount(truth, minlength=m)[:m] + np.bincount(pred, minlength=m)[:m]
    per_item = np.ones(m)
    seen = support > 0
    per_item[seen] = 2.0 * tp[seen] / support[seen]
    micro = float(np.mean(hit)) if len(truth) else 1.0
    return micro, float(per_item.mean()), per_item


def mean_embedding_distance(learned, truth) -> float:
    """Mean Euclidean distance between matching rows of two embedding matrices.

    Item identities are fixed by the dataset, so row j is compared to row j;
    no permutation alignment.
    """
    return float(np.mean(np.linalg.norm(learned - truth, axis=1)))


@dataclass(frozen=True)
class EvalReport:
    f1_micro: float
    f1_macro: float
    per_item_f1: list[float]
    mean_embed_dist: float | None
    cross_entropy: float
    # whether the transport solve met EVAL_TOL, and the Newton steps it took
    converged: bool
    sinkhorn_iterations: int


def evaluate(dataset: Dataset, items_hat, params: AffinityParams) -> EvalReport:
    """Score learned item embeddings by re-deriving the allocation.

    Recomputes the affinity matrix with the dataset's users, solves the
    regularized transport problem to ``EVAL_TOL``, rounds the coupling to a
    hard matching via the LAP, and compares it to the dataset's observed
    matching. A solve that stops short of ``EVAL_TOL``, at its step cap or
    stalled, is reported, not raised: ``converged`` is False.
    ``cross_entropy`` comes from the solve's log-domain potentials.

    The solve starts from zero, or, below ``PRICE_START_BELOW``, from
    ``-prices / epsilon``, where ``sorted_prices`` gives the exact
    assignment's item prices whenever the LAP's sorted phase settles its row
    argmax (O(n*m + n*log n), never the LAP's rounds). The solve's dual
    ``epsilon * log_b`` tends to minus such prices as epsilon -> 0: on the
    n=300 reference instance, with the items of five trains, the Newton
    steps at epsilon = 0.002 fell from 10-16 to 5-6. Near epsilon = 0.01 the
    steps saved cost about what the sort does, so every solve from 0.005 up
    keeps the zero start, as does one whose sorted phase does not settle, as
    is usual at m >= 10.

    This is the entry check for the learned items: ``items_hat`` must be a
    finite (m, d) matrix. Finite items can still overflow the affinity, or
    M / epsilon; the transport instance's range guard then raises a
    ``ValueError`` naming epsilon, or an affinity that is not finite, before
    the prices are sought or divided by epsilon, so the start and the plan
    that reaches the LAP kernel are finite. To score other users, learned
    ones or another cohort, pass ``dataclasses.replace(dataset, users=U)``,
    whose users ``Dataset`` checks like any others.
    """
    items_hat = as_matrix(items_hat, "items_hat", (dataset.n_items, dataset.dim))
    affinity = compute_affinity(dataset.users, items_hat, dataset.distances, params.alpha)
    inst = extend_with_slack(affinity, dataset.capacities, params.epsilon)
    eps = inst.epsilon
    prices = sorted_prices(affinity, dataset.capacities) if eps < PRICE_START_BELOW else None
    result = solve_ot(inst, tol=EVAL_TOL, log_b_init=None if prices is None else -prices / eps)
    predicted = round_coupling(result.user_coupling, dataset.capacities)
    micro, macro, per_item = f1_scores(dataset.matching, predicted, dataset.n_items)
    dist = None
    if dataset.items_truth is not None:
        dist = mean_embedding_distance(items_hat, dataset.items_truth)
    return EvalReport(
        f1_micro=micro,
        f1_macro=macro,
        per_item_f1=[float(x) for x in per_item],
        mean_embed_dist=dist,
        cross_entropy=matched_cross_entropy(inst, result, dataset.matching),
        converged=result.converged,
        sinkhorn_iterations=result.iterations,
    )
