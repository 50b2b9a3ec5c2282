"""Independent oracles for the benchmark's correctness checks.

Nothing here imports cgadyn. Fitness tables are rebuilt from the spec
JSON definitions, strict local maxima by flipping every locus, and the
drift from the definition of the two-sample tournament: with samples a, b
drawn from p, the higher fitness wins and exact ties go to a, so

    f(p) = E[winner - loser] = 2 sum_y y Pr(y) (Pr(g(z) < g(y)) - Pr(g(z) > g(y)))

(tied pairs cancel). Bitstrings are written locus 1 first, so solution
index i is ``format(i, "0{n}b")``.
"""

from __future__ import annotations

import numpy as np


def bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) float matrix; row i holds the bits of i, most significant first."""
    index = np.arange(1 << n)
    return ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)


def bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def fitness_table(spec: dict) -> np.ndarray:
    """All 2^n fitness values of a spec JSON object, by solution index."""
    kind, n = spec["kind"], int(spec["n"])
    index = np.arange(1 << n, dtype=np.float64)
    if kind == "binval":
        return index
    if kind == "linear":
        return bit_matrix(n) @ np.asarray(spec["weights"], dtype=np.float64)
    if kind == "perturbed_onemax":
        return bit_matrix(n).sum(axis=1) + float(spec["epsilon"]) * index
    if kind == "table":
        return np.asarray([float(spec["table"][bitstring(i, n)]) for i in range(1 << n)])
    if kind == "random_injective":
        # the family is defined as this seeded permutation of 0 .. 2^n - 1
        rng = np.random.default_rng(np.random.SeedSequence(int(spec["seed"])))
        return rng.permutation(1 << n).astype(np.float64)
    raise ValueError(f"no oracle for fitness kind {kind!r}")


def strict_local_maxima(values: np.ndarray, n: int) -> set[str]:
    """Bitstrings strictly fitter than each of their n one-bit neighbours."""
    return {
        bitstring(i, n)
        for i in range(1 << n)
        if all(values[i] > values[i ^ (1 << m)] for m in range(n))
    }


def drift(values: np.ndarray, n: int, points) -> np.ndarray:
    """f(p) for a (B, n) batch of probability vectors."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    bits = bit_matrix(n)
    probs = np.prod(np.where(bits[None, :, :] == 1.0, P[:, None, :], 1.0 - P[:, None, :]), axis=2)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.searchsorted(ranked, values, side="left")
    past = np.searchsorted(ranked, values, side="right")
    cum = np.concatenate([np.zeros((P.shape[0], 1)), np.cumsum(probs[:, order], axis=1)], axis=1)
    below = cum[:, first]
    above = cum[:, -1:] - cum[:, past]
    return 2.0 * (probs * (below - above)) @ bits


def binval_drift(points) -> np.ndarray:
    """Product form for the binary value: f_i = 2 p_i (1 - p_i) prod_{j<i} (p_j^2 + (1 - p_j)^2)."""
    P = np.asarray(points, dtype=np.float64)
    agree = P ** 2 + (1.0 - P) ** 2
    gate = np.concatenate([np.ones(P.shape[:-1] + (1,)), np.cumprod(agree, axis=-1)[..., :-1]], axis=-1)
    return 2.0 * P * (1.0 - P) * gate


def rk4(field, x0, h: float, steps: int):
    """Classical RK4 with states clipped to [0, 1]; returns (states, clamp count)."""
    x = np.asarray(x0, dtype=np.float64)
    states = [x]
    clamps = 0
    for _ in range(steps):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        step = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = np.clip(step, 0.0, 1.0)
        clamps += int(np.count_nonzero(x != step))
        states.append(x)
    return np.asarray(states), clamps
