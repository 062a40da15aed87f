"""Central-difference gradients, the oracle the analytic backward passes are checked against."""

import numpy as np

from deskrl.errors import NonFiniteError


def finite_diff_grad(loss_fn, store, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss over every parameter.

    Mutates the store in place while probing and restores each entry
    bit-exactly before moving on.
    """
    grad = np.empty_like(store.flat)
    flat = store.flat
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = float(loss_fn(store))
        flat[i] = saved - h
        f_minus = float(loss_fn(store))
        flat[i] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"loss is non-finite near parameter index {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
