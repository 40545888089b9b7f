"""SGD with momentum and the polynomial learning-rate decay policy."""

from __future__ import annotations

import numpy as np


def poly_lr(base: float, iteration: int, max_iter: int, power: float) -> float:
    """base * (1 - iter/max_iter) ** power."""
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return base * (1.0 - iteration / max_iter) ** power


class SGDMomentum:
    """Classic momentum: v = m*v + lr_eff*grad; w -= v.

    ``lr_multipliers`` maps parameter name -> per-layer factor (default 1).
    A frozen parameter is simply left out of ``params``; a parameter with no
    gradient this step is skipped.
    """

    def __init__(self, params: dict, momentum: float = 0.9,
                 lr_multipliers: dict[str, float] | None = None):
        self.params = params
        self.momentum = momentum
        self.lr_multipliers = dict(lr_multipliers or {})
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ValueError(f"negative learning rate {lr}")
        for name, p in self.params.items():
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += (lr * self.lr_multipliers.get(name, 1.0)) * p.grad
            p.data -= v

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
