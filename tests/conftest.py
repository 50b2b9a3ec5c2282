"""Shared fixtures: the built-in spec suite and brute-force oracles.

The oracles here deliberately avoid the package's prefix-sum machinery:
they enumerate ordered sample pairs directly and apply the
first-sample-wins tie rule, so they validate the closed forms
independently. The reference loops (``reference_*``) restate a kernel
in its plainest form, for tests that require bit-identical results.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from cgadyn import drift_field as dr
from cgadyn import landscape as ls


TWO_MAX_TABLE = ls.table_spec({"00": 3.0, "01": 1.0, "10": 2.0, "11": 4.0})


def superincreasing_weights(n: int) -> tuple[float, ...]:
    # dyadic, exactly representable, subset sums all distinct
    return tuple(0.75 * 2.0 ** (n - i) for i in range(1, n + 1))


def injective_suite(n: int) -> list[ls.FitnessSpec]:
    """One spec of every built-in injective family at length n."""
    specs = [
        ls.binval(n),
        ls.linear(superincreasing_weights(n)),
        ls.perturbed_onemax(n, 2.0 ** -n),
        ls.random_injective(n, seed=100 + n),
    ]
    if n == 2:
        specs.append(TWO_MAX_TABLE)
    return specs


def unitation_table(n: int, g) -> ls.FitnessSpec:
    """The table spec of a fitness g(|y|) that reads only the count of ones."""
    return ls.table_spec([float(g(i.bit_count())) for i in range(1 << n)], n=n)


def jump_table(n: int, k: int) -> ls.FitnessSpec:
    """Jump_k: k + |y| where |y| <= n - k or |y| = n, and n - |y| in the gap."""
    return unitation_table(n, lambda u: k + u if u <= n - k or u == n else n - u)


def assert_same_lines(got: str, want: str) -> None:
    """``got == want``, checked line by line and then by the line count, so
    that a failure names its first differing line without diffing two
    tables of a megabyte."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {i}"
    assert len(got) == len(want)


# ---------------------------------------------------------------------------
# independent oracles (ordered-pair enumeration)
# ---------------------------------------------------------------------------

def product_prob(p, bits) -> float:
    out = 1.0
    for pi, b in zip(p, bits):
        out *= pi if b else 1.0 - pi
    return out


def pair_oracle(spec: ls.FitnessSpec, p):
    """Winner/loser distributions and expected update by exhausting all
    ordered sample pairs (a, b); ties go to a."""
    n = spec.n
    sols = list(itertools.product((0, 1), repeat=n))
    win = np.zeros(1 << n)
    lose = np.zeros(1 << n)
    f = np.zeros(n)
    for a in sols:
        pa = product_prob(p, a)
        ga = ls.evaluate(spec, a)
        for b in sols:
            pb = product_prob(p, b)
            gb = ls.evaluate(spec, b)
            w, l = (a, b) if ga >= gb else (b, a)
            prob = pa * pb
            win[ls.bits_to_index(w)] += prob
            lose[ls.bits_to_index(l)] += prob
            f += prob * (np.asarray(w, dtype=float) - np.asarray(l, dtype=float))
    return win, lose, f


def reference_sampling_probs(p, n: int) -> np.ndarray:
    """Pr(y|p) for every solution index, locus 0 the most significant bit:
    the per-locus tensor product 1 * (1-p_0 or p_0) * ... * (1-p_{n-1} or
    p_{n-1}), built with a new array per locus, for p of shape (..., n)."""
    arr = np.asarray(p, dtype=np.float64)
    probs = np.ones(arr.shape[:-1] + (1,))
    for i in range(n):
        pi = arr[..., i : i + 1]
        pair = np.stack([1.0 - pi, pi], axis=-1)  # (..., 1, 2)
        probs = (probs[..., :, None] * pair).reshape(arr.shape[:-1] + (-1,))
    return probs


def reference_drift(spec: ls.FitnessSpec, p):
    """(drift, winner_probs, loser_probs) at p of shape (..., n), by the
    grouped prefix-sum formula with every pass, ties or none: sort Pr(z|p)
    by fitness, sum each tie group (``np.add.reduceat``), take cumulative
    sums, and read each index's sums strictly below (s_lt), tied (s_eq) and
    strictly above (s_gt) its fitness. Then winner = Pr * (2 s_lt + s_eq),
    loser = Pr * (2 s_gt + s_eq) and f = 2 (Pr * (s_lt - s_gt)) @ bits, one
    row at a time, so no row's product depends on the rows around it."""
    vals = ls.fitness_values(spec)
    uniq, group_of = np.unique(vals, return_inverse=True)
    order = np.argsort(vals, kind="stable")
    starts = np.searchsorted(vals[order], uniq, side="left")
    probs = reference_sampling_probs(p, spec.n)
    group_sums = np.add.reduceat(probs[..., order], starts, axis=-1)
    cum = np.cumsum(group_sums, axis=-1)
    s_le = np.take(cum, group_of, axis=-1)
    s_eq = np.take(group_sums, group_of, axis=-1)
    s_lt = s_le - s_eq
    s_gt = cum[..., -1:] - s_le
    bits = ls.all_bit_matrix(spec.n)
    w = probs * (s_lt - s_gt)
    f = 2.0 * np.array([row @ bits for row in w.reshape(-1, w.shape[-1])])
    f = f.reshape(w.shape[:-1] + (spec.n,))
    return f, probs * (2.0 * s_lt + s_eq), probs * (2.0 * s_gt + s_eq)


def reference_real_csv(fieldnames, rows) -> str:
    """A CSV table of reals as ``csv.writer`` writes it, every value
    formatted by ``format(x, ".17g")``, one ``writerow`` per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([format(float(x), ".17g") for x in row])
    return buf.getvalue()


def reference_drift_grid_csv(spec: ls.FitnessSpec, resolution: int) -> str:
    """The table of ``cgadyn drift --grid``: every grid point, last locus
    varying fastest, with its drift from one batched ``drift`` call (the
    same batch shape as the command's), formatted row by row."""
    axis = np.linspace(0.0, 1.0, resolution)
    points = np.array(list(itertools.product(axis, repeat=spec.n)))
    f = dr.drift(points, spec)
    names = [f"p_{i}" for i in range(1, spec.n + 1)] + [f"f_{i}" for i in range(1, spec.n + 1)]
    return reference_real_csv(names, (tuple(x) + tuple(y) for x, y in zip(points, f)))


def reference_jsonl_records(key: str, labels, states) -> str:
    """JSON-lines records {key: label, "p": [...]}, one ``json.dumps`` call
    per record, as the trajectory writers wrote them record by record."""
    return "".join(
        json.dumps({key: label, "p": [float(x) for x in row]}) + "\n"
        for label, row in zip(labels, states)
    )


class DiscardingText:
    """A text file that keeps nothing it is written, so a writer's memory
    is its own and not the output's."""

    def write(self, text: str) -> int:
        return len(text)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def local_maxima(spec: ls.FitnessSpec) -> dict[tuple[int, ...], bool]:
    """Every y at least as fit as each of its n Hamming-1 neighbours, mapped
    to whether it is strictly fitter than all of them, by flipping each
    locus and evaluating the neighbour. Keys in solution-index order."""
    out = {}
    for y in itertools.product((0, 1), repeat=spec.n):
        g = ls.evaluate(spec, y)
        neighbors = [ls.evaluate(spec, y[:m] + (1 - y[m],) + y[m + 1:]) for m in range(spec.n)]
        if all(g >= gz for gz in neighbors):
            out[y] = all(g > gz for gz in neighbors)
    return out


def strict_local_maxima(spec: ls.FitnessSpec) -> set[tuple[int, ...]]:
    """Every y fitter than each of its n Hamming-1 neighbours."""
    return {y for y, strict in local_maxima(spec).items() if strict}


def binval_drift_closed_form(p) -> np.ndarray:
    """For the binary-value fitness the expected update factors per locus:
    f_i = 2 p_i (1-p_i) * prod_{j<i} (p_j^2 + (1-p_j)^2)."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    gate = 1.0
    for i in range(p.shape[0]):
        out[i] = 2.0 * p[i] * (1.0 - p[i]) * gate
        gate *= p[i] ** 2 + (1.0 - p[i]) ** 2
    return out


def binval_jacobian_closed_form(p) -> np.ndarray:
    """Exact Jacobian of ``binval_drift_closed_form``. With
    G_i = prod_{j<i} (p_j^2 + (1-p_j)^2):
    J_ii = 2 (1-2p_i) G_i,
    J_ij = 2 p_i (1-p_i) G_i (4p_j - 2) / (p_j^2 + (1-p_j)^2) for j < i,
    J_ij = 0 for j > i (f_i does not depend on later loci)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    q = p ** 2 + (1.0 - p) ** 2
    out = np.zeros((n, n))
    for i in range(n):
        gate = float(np.prod(q[:i]))
        out[i, i] = 2.0 * (1.0 - 2.0 * p[i]) * gate
        for j in range(i):
            out[i, j] = 2.0 * p[i] * (1.0 - p[i]) * gate * (4.0 * p[j] - 2.0) / q[j]
    return out


def pair_oracle_jacobian(spec: ls.FitnessSpec, p, h: float) -> np.ndarray:
    """Central-difference Jacobian of ``pair_oracle``'s expected update:
    column m is (f(p + h e_m) - f(p - h e_m)) / (2h)."""
    p = np.asarray(p, dtype=float)
    out = np.empty((spec.n, spec.n))
    for m in range(spec.n):
        step = np.zeros(spec.n)
        step[m] = h
        out[:, m] = (pair_oracle(spec, p + step)[2] - pair_oracle(spec, p - step)[2]) / (2.0 * h)
    return out


def reference_cga_run(spec: ls.FitnessSpec, N: int, seed, *, initial=None, max_iters=None,
                      record_every: int = 1):
    """One cGA run as a plain loop, without ``cgadyn.cga``.

    Each iteration draws ``rng.random(n)`` for sample a, then again for
    sample b (bit i is 1 iff its uniform is below p_i = counts_i / 2N);
    the fitter wins, a on a tie; every locus where they differ moves one
    grid step toward the winner. The run stops at a corner or after
    ``max_iters`` iterations (default 50 * 2N * n). It keeps iteration 0,
    every ``record_every``-th iteration, the corner, and the last one.
    Returns (counts, recorded_ks, iterations, terminated).
    """
    n = spec.n
    two_n = 2 * N
    counts = [N] * n if initial is None else [int(round(p * two_n)) for p in initial]
    if max_iters is None:
        max_iters = 50 * two_n * n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fitness = {}  # ls.evaluate per solution, looked up once

    def value(x):
        if x not in fitness:
            fitness[x] = ls.evaluate(spec, x)
        return fitness[x]

    def at_corner():
        return all(c in (0, two_n) for c in counts)

    snapshots, ks = [list(counts)], [0]
    k = 0
    while k < max_iters and not at_corner():
        p = [c / two_n for c in counts]
        a = tuple(int(u < pi) for u, pi in zip(rng.random(n), p))
        b = tuple(int(u < pi) for u, pi in zip(rng.random(n), p))
        winner, loser = (a, b) if value(a) >= value(b) else (b, a)
        counts = [c + w - l for c, w, l in zip(counts, winner, loser)]
        k += 1
        if k % record_every == 0 or at_corner():
            snapshots.append(list(counts))
            ks.append(k)
    if ks[-1] != k:
        snapshots.append(list(counts))
        ks.append(k)
    return np.asarray(snapshots, dtype=np.int64), np.asarray(ks, dtype=np.int64), k, at_corner()


def reference_find_limit_many(spec: ls.FitnessSpec, x0s, *, tol=1e-8, T_max=200.0, h=1e-2):
    """The stall search as a plain loop, reusing no drift evaluation.

    The grid is 0, h, 2h, ..., with a shorter last step onto T_max. At
    t = 0 and after every step, the rows still moving get one ``drift``
    call; a row whose max |drift| is below tol stops there. Each step
    moves the rows still moving by classical RK4, four ``drift`` calls on
    exactly those rows, then clamps them to [0, 1].
    Returns (states, converged, t_stop).
    """
    field = lambda x: dr.drift(x, spec)
    X = np.array(x0s, dtype=np.float64, ndmin=2)
    converged = np.zeros(X.shape[0], dtype=bool)
    t_stop = np.full(X.shape[0], T_max)
    times = list(np.arange(int(np.floor(T_max / h + 1e-12)) + 1) * h)
    if T_max - times[-1] > 1e-12 * max(1.0, T_max):
        times.append(T_max)

    def stall_check(t):
        rows = np.flatnonzero(~converged)
        if rows.size:
            stalled = np.max(np.abs(field(X[rows])), axis=-1) < tol
            converged[rows[stalled]] = True
            t_stop[rows[stalled]] = t

    stall_check(0.0)
    for t_prev, t_now in zip(times, times[1:]):
        rows = np.flatnonzero(~converged)
        if rows.size == 0:
            break
        x, dt = X[rows], t_now - t_prev
        k1 = field(x)
        k2 = field(x + 0.5 * dt * k1)
        k3 = field(x + 0.5 * dt * k2)
        k4 = field(x + dt * k3)
        X[rows] = np.clip(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, 1.0)
        stall_check(t_now)
    return X, converged, t_stop


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
