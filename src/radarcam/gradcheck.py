"""Finite-difference validation of the analytic depth-loss gradient.

The analytic gradient is exact wherever the loss is differentiable; the
neighborhood min/max and the L1 term introduce kinks, so random instances
are resampled until every target's selected pixel wins by a clear margin
and no expectation sits on the L1 corner. Central differences then have to
agree with the analytic gradient to the requested relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth_supervision import (
    AGGREGATIONS,
    STRATEGIES,
    DepthBinSpec,
    DepthTarget,
    LossConfig,
    _loss_selection,
    one_to_many_loss,
    one_to_many_loss_grad,
)
from .tensor_ops import softmax

SELECTION_MARGIN = 1e-3
MIN_BINS = 4  # fewest depth bins of a random instance
MIN_SIZE = 3  # fewest pixels per side of a random instance


@dataclass(frozen=True)
class GradCheckInstance:
    logits: np.ndarray
    targets: tuple[DepthTarget, ...]
    spec: DepthBinSpec
    cfg: LossConfig


def _is_well_separated(depth_map: np.ndarray, inst: GradCheckInstance) -> bool:
    """Reject instances whose argmin/argmax or L1 terms sit near a kink."""
    _, table, expectation, sel = _loss_selection(depth_map, inst.targets, inst.spec, inst.cfg)
    if np.any(np.abs(expectation[sel.v, sel.u] - table[:, 2]) < SELECTION_MARGIN):
        return False
    # Costs are signed so the lowest wins and off-disk slots hold +inf: the gap
    # between the two lowest is infinite for a target with one candidate.
    return not any(
        np.any(np.diff(np.partition(costs, 1, axis=1)[:, :2], axis=1) < SELECTION_MARGIN)
        for costs in sel.costs
        if costs.shape[1] > 1
    )


def random_instance(rng: np.random.Generator, max_bins: int = 16, max_size: int = 12) -> GradCheckInstance:
    """A random loss instance with well-separated selections."""
    while True:
        num_bins = int(rng.integers(MIN_BINS, max_bins + 1))
        height = int(rng.integers(MIN_SIZE, max_size + 1))
        width = int(rng.integers(MIN_SIZE, max_size + 1))
        spec = DepthBinSpec(0.0, float(num_bins), num_bins)
        logits = rng.normal(0.0, 1.0, size=(num_bins, height, width))
        n_targets = int(rng.integers(1, 4))
        targets = tuple(
            DepthTarget(
                int(rng.integers(0, width)),
                int(rng.integers(0, height)),
                float(rng.uniform(0.0, num_bins)),
                float(rng.uniform(0.0, 2.5)),
            )
            for _ in range(n_targets)
        )
        # 70% min aggregation, 80% one-to-many
        cfg = LossConfig(
            neighborhood_agg=AGGREGATIONS[rng.uniform() >= 0.7],
            strategy=STRATEGIES[rng.uniform() < 0.8],
        )
        inst = GradCheckInstance(logits, targets, spec, cfg)
        if _is_well_separated(softmax(logits, axis=0), inst):
            return inst


def finite_difference_grad(inst: GradCheckInstance, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of the total loss over pre-softmax logits."""

    def loss_at(logits: np.ndarray) -> float:
        depth_map = softmax(logits, axis=0)
        return one_to_many_loss(depth_map, inst.targets, inst.spec, inst.cfg).total

    grad = np.zeros_like(inst.logits)
    flat = grad.reshape(-1)
    base = inst.logits.reshape(-1)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        up = loss_at(bumped.reshape(inst.logits.shape))
        bumped[i] = base[i] - step
        down = loss_at(bumped.reshape(inst.logits.shape))
        flat[i] = (up - down) / (2.0 * step)
    return grad


def analytic_grad(inst: GradCheckInstance) -> np.ndarray:
    depth_map = softmax(inst.logits, axis=0)
    return one_to_many_loss_grad(depth_map, inst.targets, inst.spec, inst.cfg)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max-norm deviation relative to the max-norm of the numeric gradient."""
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def run_grad_check(
    instances: int = 100,
    seed: int = 0,
    step: float = 1e-4,
    max_bins: int = 16,
    max_size: int = 12,
) -> float:
    """Worst relative error between analytic and numeric gradients."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        inst = random_instance(rng, max_bins=max_bins, max_size=max_size)
        err = relative_error(analytic_grad(inst), finite_difference_grad(inst, step))
        worst = max(worst, err)
    return worst
