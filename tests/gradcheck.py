"""Finite-difference gradient check shared by the encoder and model tests.

A plain central difference at eps=1e-4 has O(eps²) truncation error,
which is enough to miss a 1e-3 relative tolerance on gradient entries of
~1e-6 (about 1.5% of random seeds per model variant). Extrapolating
central differences at eps and eps/2 (Richardson) cancels that term. What
is left is float64 round-off in the objective, ~1e-11 in absolute terms,
which matters only for entries near zero, so the tolerance has an
absolute floor tied to the largest gradient entry. Over 100 seeds per
model variant and 100 encoder seeds the error stayed below 1% of that
floor, which leaves room for a tight relative tolerance.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-4
RTOL = 1e-6
FLOOR = 1e-7  # times the largest gradient entry


def richardson_fd(objective, flat: np.ndarray, i: int) -> float:
    """d objective / d flat[i], from central differences at EPS and EPS/2."""

    def central(h: float) -> float:
        orig = flat[i]
        flat[i] = orig + h
        lp = objective()
        flat[i] = orig - h
        lm = objective()
        flat[i] = orig
        return (lp - lm) / (2 * h)

    return (4 * central(EPS / 2) - central(EPS)) / 3


def fd_mismatches(objective, params: dict, grads: dict, rng, per_tensor: int) -> list:
    """(name, index, fd, analytic) for each checked entry where the two disagree.

    Checks `per_tensor` random entries of every tensor in `params` (float64,
    perturbed in place and restored) against `grads[name]`; the absolute
    floor uses the largest entry over all of `grads`.
    """
    floor = FLOOR * max(float(np.abs(g).max()) for g in grads.values())
    bad = []
    for name, arr in params.items():
        flat = arr.reshape(-1)
        for i in rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False):
            fd = richardson_fd(objective, flat, i)
            analytic = grads[name].reshape(-1)[i]
            if abs(fd - analytic) > RTOL * max(abs(fd), abs(analytic)) + floor:
                bad.append((name, int(i), fd, float(analytic)))
    return bad
