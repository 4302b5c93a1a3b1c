"""Checks shared by the test files and the acceptance suite: unit tiling,
and central finite-difference gradient checking.

The gradient check's loss callable must be a pure function of the
store's parameters.  Relative error uses max(|analytic|, |numeric|,
floor) as denominator so near-zero gradients are judged on an absolute
scale.
"""

import numpy as np

from gransum.nn import ParameterStore
from gransum.spans import Unit


def check_tiling(units: list[Unit], sentence_length: int) -> None:
    """Assert that units tile [0, sentence_length) contiguously."""
    if not units:
        raise ValueError("no units for sentence")
    if units[0].span.start != 0:
        raise ValueError("first unit does not start at 0")
    for prev, cur in zip(units, units[1:]):
        if cur.span.start != prev.span.end:
            raise ValueError(
                f"gap/overlap between units at {prev.span.end} vs {cur.span.start}"
            )
    if units[-1].span.end != sentence_length:
        raise ValueError("last unit does not reach sentence end")


def finite_difference_check(
    loss_fn,
    store: ParameterStore,
    h: float = 1e-5,
    param_names: list[str] | None = None,
    max_elements_per_param: int | None = None,
    rng_seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    loss_fn() must zero the store's gradients, run the model, accumulate
    gradients, and return the scalar loss.  Returns the maximum relative
    error over all checked elements.
    """
    loss_fn()
    analytic = {k: v.copy() for k, v in store.grads.items()}
    names = param_names if param_names is not None else sorted(store.params)
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for name in names:
        param = store.params[name]
        flat = param.reshape(-1)
        idx = np.arange(flat.size)
        if max_elements_per_param is not None and flat.size > max_elements_per_param:
            idx = rng.choice(flat.size, size=max_elements_per_param, replace=False)
        ana_flat = analytic[name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-6)
            worst = max(worst, abs(ana_flat[i] - numeric) / denom)
    return worst
