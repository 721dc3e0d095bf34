"""SGD with classical momentum, plus the two learning-rate schedules.

``sgd_step`` mutates parameters in place:

    buf <- momentum * buf + grad + weight_decay * param
    param <- param - lr * buf

``step_decay`` multiplies the base rate by ``factor`` once per milestone
already reached; ``cosine_lr`` sweeps a half cosine from ``lr_max`` down to
``lr_min`` over each period, restarting at every period boundary.
``LR_SCHEDULES`` maps each config ``lr_schedule`` name to the rate it gives
a ``[train]`` section at an epoch.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .autodiff import Parameter
from .errors import InvalidHyperparameter, MissingGradient


def sgd_step(
    params: Iterable[Parameter],
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> None:
    """One in-place SGD update over ``params``; raises MissingGradient if a
    parameter has no gradient."""
    if lr < 0:
        raise InvalidHyperparameter(f"lr must be >= 0, got {lr}")
    for p in params:
        g = p.grad
        if g is None:
            raise MissingGradient("parameter has no gradient; run backward() first")
        if weight_decay:
            g = g + weight_decay * p.data
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum


def zero_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = None


def step_decay(lr0: float, milestones: Sequence[int], epoch: int, factor: float = 0.1) -> float:
    """Piecewise-constant schedule: lr0 scaled by ``factor`` at each milestone.

    step_decay(0.1, (100, 150), 120) == 0.01.
    """
    if factor <= 0:
        raise InvalidHyperparameter(f"factor must be > 0, got {factor}")
    drops = sum(1 for m in milestones if epoch >= m)
    return lr0 * factor**drops


def cosine_lr(lr_max: float, lr_min: float, period: int, epoch: int) -> float:
    """Cosine schedule restarting every ``period`` epochs.

    Phase 0 gives lr_max; mid-period gives the arithmetic midpoint; the
    last epoch of a period sits just above lr_min.
    """
    if period <= 0:
        raise InvalidHyperparameter(f"period must be positive, got {period}")
    if lr_min > lr_max:
        raise InvalidHyperparameter(f"lr_min {lr_min} exceeds lr_max {lr_max}")
    phase = (epoch % period) / period
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * phase))


LR_SCHEDULES = {
    "constant": lambda t, epoch: t.lr,
    "step": lambda t, epoch: step_decay(t.lr, t.milestone_list(), epoch, t.factor),
    "cosine": lambda t, epoch: cosine_lr(
        t.lr, t.lr_min, t.period if t.period > 0 else t.epochs, epoch),
}
