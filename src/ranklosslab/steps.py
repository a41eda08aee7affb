"""Pairwise activation family used by the ranking losses.

Three step-like activations map a pairwise score difference to [0, 1]:
a hard Heaviside step (1 at and above zero), a linear ramp of half-width
``delta``, and a logistic curve with slope scale ``k``.  The ramp's running
integral is also provided; it is the smooth potential whose derivative is
the ramp and it drives the inseparable-data analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HEAVISIDE_KIND = "heaviside"
PIECEWISE_KIND = "piecewise"
SIGMOID_KIND = "sigmoid"

STEP_KINDS = (HEAVISIDE_KIND, PIECEWISE_KIND, SIGMOID_KIND)

# Ablation-backed defaults: ramp half-width 1, logistic slope scale 0.5.
DEFAULT_DELTA = 1.0
DEFAULT_SIGMOID_K = 0.5


@dataclass(frozen=True)
class StepConfig:
    """Selects and parameterizes the pairwise activation.

    ``delta`` is only consumed by the piecewise ramp, ``k`` only by the
    sigmoid; both must stay positive and finite so the activations are
    monotone and bounded in [0, 1].
    """

    kind: str = HEAVISIDE_KIND
    delta: float = DEFAULT_DELTA
    k: float = DEFAULT_SIGMOID_K

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}; expected one of {STEP_KINDS}")
        if self.kind == PIECEWISE_KIND and not 0 < self.delta < math.inf:
            raise ValueError(f"piecewise step requires finite delta > 0, got {self.delta}")
        if self.kind == SIGMOID_KIND and not 0 < self.k < math.inf:
            raise ValueError(f"sigmoid step requires finite k > 0, got {self.k}")

    @classmethod
    def heaviside(cls) -> "StepConfig":
        return cls(kind=HEAVISIDE_KIND)

    @classmethod
    def piecewise(cls, delta: float = DEFAULT_DELTA) -> "StepConfig":
        return cls(kind=PIECEWISE_KIND, delta=delta)

    @classmethod
    def sigmoid(cls, k: float = DEFAULT_SIGMOID_K) -> "StepConfig":
        return cls(kind=SIGMOID_KIND, k=k)


HEAVISIDE = StepConfig.heaviside()


def step_value(x, cfg: StepConfig = HEAVISIDE):
    """Evaluate the configured step activation at ``x`` (scalar or array).

    Heaviside returns 0 below zero and 1 at and above it (ties count as
    misordered).  The piecewise ramp is 0 below ``-delta``, rises linearly
    through (0, 0.5), and saturates at 1 above ``delta``.  The sigmoid is
    the logistic function of ``x / k``.
    """
    if isinstance(x, np.ndarray):
        return _step_array(x, cfg)
    return _step_scalar(float(x), cfg)


def _step_scalar(x: float, cfg: StepConfig) -> float:
    if cfg.kind == HEAVISIDE_KIND:
        return 1.0 if x >= 0.0 else 0.0
    if cfg.kind == PIECEWISE_KIND:
        if x < -cfg.delta:
            return 0.0
        if x > cfg.delta:
            return 1.0
        return x / (2.0 * cfg.delta) + 0.5
    # Logistic, evaluated on the side that keeps exp() from overflowing.
    z = x / cfg.k
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _step_array(x: np.ndarray, cfg: StepConfig, out: np.ndarray | None = None) -> np.ndarray:
    """The step at each entry of ``x``, written into the float64 ``out``
    when given (which may be ``x`` itself), with the same bits either way."""
    if cfg.kind == HEAVISIDE_KIND:
        if out is None:
            return (x >= 0.0).astype(np.float64)
        return np.greater_equal(x, 0.0, out=out)
    if cfg.kind == PIECEWISE_KIND:
        y = np.divide(x, 2.0 * cfg.delta, out=out)
        y += 0.5
        return np.clip(y, 0.0, 1.0, out=out)
    # Logistic with exp(-|z|) <= 1, so exp() never overflows on either side.
    z = x / cfg.k
    e = np.exp(-np.abs(z))
    y = np.divide(np.where(z >= 0.0, 1.0, e), 1.0 + e, out=out)
    return y.astype(np.float64, copy=False)


def ramp_integral(x, delta: float):
    """Running integral of the piecewise ramp from -infinity to ``x``.

    Zero up to ``-delta``, the quadratic ``(x + delta)^2 / (4 delta)`` on
    the ramp, and ``x`` beyond ``delta``.  Continuously differentiable with
    derivative equal to the ramp itself, and convex.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"ramp_integral requires finite delta > 0, got {delta}")
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > delta, x, (np.clip(x, -delta, delta) + delta) ** 2 / (4.0 * delta))
    if out.ndim == 0:
        return float(out)
    return out
