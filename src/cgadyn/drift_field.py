"""Exact distributions of the pairwise tournament and the expected-update field.

Everything here is closed-form enumeration over all 2^n solutions, no
sampling. For a probability vector p, the per-solution quantities are

* ``sampling_probs``  -- Pr(y|p), the independent-locus product,
* ``winner_probs``    -- Pr(y wins a two-sample tournament | p),
* ``loser_probs``     -- Pr(y loses | p),

and the drift ``f(p)`` is the expected winner-minus-loser update per unit
learning step, computed by two formulae: ``drift`` (single pass over
fitness-sorted prefix sums, O(2^n * n)) and ``drift_naive`` (through the
winner/loser distributions). Both share the sampling product and the
prefix sums, so they are not independent arithmetic. Ties in fitness are
handled throughout via the first-sample-wins rule. Corner Jacobians are
diagonal, 2 times ``landscape.neighbor_signs``: +2, -2, or 0 on a tie.

The tournament sums are built in fitness order: Pr(z|p) comes out of the
product already sorted by fitness, and only the last per-solution array
goes back to index order, in one gather, before the sum over solutions.

All functions accept a single vector p of shape (n,) or a batch of shape
(..., n) and vectorize over the leading axes. Each row's result is the
same, bit for bit, whatever batch it comes in, although the batch's size
picks which of two routes builds ``sampling_probs``.

Each input's shape is checked first, then its range once, on whichever
route builds ``sampling_probs`` (see :func:`_product`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .landscape import (
    FitnessSpec,
    _as_bits,
    _read_only,
    _real,
    all_bit_matrix,
    fitness_values,
    neighbor_signs,
    place_values,
    require_injective,
)


# ---------------------------------------------------------------------------
# per-spec fitness order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SpecTables:
    """One spec's solutions in fitness order: position j holds solution
    ``order[j]``, and solution y sits at position ``rank[y]``. The tie
    groups and the selector are laid out in that order too."""

    n: int
    order: np.ndarray        # (2^n,) indices sorted by fitness (stable)
    rank: np.ndarray         # (2^n,) inverse of `order`: rank[order[j]] == j
    group_of: np.ndarray     # (2^n,) fitness-tie group of each position, ascending
    group_starts: np.ndarray  # (G,) first position of each group
    # _locus_selector(n) with its columns permuted by `order`; only where the
    # gather route can run (2^n <= _GATHER_MAX_ENTRIES), else None
    selector: np.ndarray | None
    twice_bits: np.ndarray   # (2^n, n) _twice_bits(n): one per n, not per spec


def _tables(spec: FitnessSpec) -> _SpecTables:
    """The spec's tables, built once per spec object and kept in its memo."""
    t = spec._memo.get("tables")
    if t is None:
        t = spec._memo["tables"] = _build_tables(spec)
    return t


def _build_tables(spec: FitnessSpec) -> _SpecTables:
    n = spec.n
    vals = fitness_values(spec)
    order = np.argsort(vals, kind="stable").astype(np.int64)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    uniq, group_of = np.unique(vals[order], return_inverse=True)
    selector = None
    if 1 << n <= _GATHER_MAX_ENTRIES:
        selector = _read_only(_locus_selector(n)[:, order])
    return _SpecTables(
        n=n,
        order=order,
        rank=rank,
        group_of=group_of.astype(np.int64),
        group_starts=np.searchsorted(vals[order], uniq, side="left").astype(np.int64),
        selector=selector,
        twice_bits=_twice_bits(n),
    )


def _shaped_pv(p, n: int) -> np.ndarray:
    """p as a float64 array of shape (..., n); its range is not checked."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] != n:
        raise DimensionError(f"probability vector shape {arr.shape} does not match n={n}")
    return arr


_OUT_OF_BOX = "probability vector entries must lie in [0, 1]"


def _as_pv(p, n: int) -> np.ndarray:
    """p as a float64 array of shape (..., n), its shape checked first and
    then every entry's range (NaN fails too)."""
    arr = _shaped_pv(p, n)
    if arr.size and not (np.minimum.reduce(arr, axis=None) >= 0.0
                         and np.maximum.reduce(arr, axis=None) <= 1.0):
        raise DomainError(_OUT_OF_BOX)
    return arr


# ---------------------------------------------------------------------------
# sampling distribution
# ---------------------------------------------------------------------------

# Largest output (rows * 2^n entries) that sampling_probs builds by the
# gather. The gather moves n times the memory of the doubling loop but
# makes four numpy calls where the loop makes two per locus. Timed against
# each other (BENCH_13.json), the gather was faster up to about this size
# and slower above it.
_GATHER_MAX_ENTRIES = 1024


@functools.cache
def _locus_selector(n: int) -> np.ndarray:
    """(n, 2^n) intp selector S[i, y] = i + n * bit_i(y): the position of
    locus i's factor for solution y in concat(1 - p, p). Read-only, one
    per n."""
    bits = all_bit_matrix(n).T.astype(np.intp)
    return _read_only(np.arange(n, dtype=np.intp)[:, None] + n * bits)


@functools.cache
def _twice_bits(n: int) -> np.ndarray:
    """2 * all_bit_matrix(n), read-only, one per n. Scaling by 2 commutes
    with every rounding of drift's bit sums (|f| <= 1, so nothing
    overflows) and keeps the sign of zero, so summing against it gives
    2.0 * the sums against the bits, bit for bit."""
    return _read_only(2.0 * all_bit_matrix(n))


def sampling_probs(p, n: int) -> np.ndarray:
    """Pr(y|p) for every solution index, shape (..., 2^n).

    Entry y is the product (1-p_0 or p_0) * ... * (1-p_{n-1} or p_{n-1}),
    multiplied left to right from locus 0 (the most significant bit), by
    one of two routes chosen by the output's size alone:

    * Small outputs (rows * 2^n <= 1024) gather every factor at once:
      ``concat(1 - p, p)`` indexed by :func:`_locus_selector` is an
      (..., n, 2^n) array, and ``np.multiply.reduce`` over its locus axis,
      which is not the innermost axis, multiplies the n factors in locus
      order.
    * Larger outputs are built in one preallocated buffer. Locus 0 writes
      1-p_0 and p_0 straight into entries 0 and 2^(n-1). Every later locus
      i doubles the buffer in place: with stride s = 2^(n-1-i), each
      filled entry, a multiple of 2s, is split into itself times (1-p_i)
      and the entry s above it times p_i.

    Both routes compute ((v_0 * v_1) * v_2) * ... with the same operands in
    the same order, so a row's bits do not depend on the route, and so not
    on its batch. Deterministic configurations give exact 0/1
    probabilities.
    """
    return _product(p, n)


def _product(p, n: int, selector=None, order=None) -> np.ndarray:
    """:func:`sampling_probs` with its columns in the order ``order``
    (default: index order). The gather route reads ``selector`` in place of
    a sort: :func:`_locus_selector` with its columns in that same order,
    given wherever that route can run. The doubling loop sorts its output
    with one gather instead.

    The gather route checks ``p``'s range on its factors, in place of
    :func:`_as_pv`: an entry lies in [0, 1] iff it and 1 minus it are both
    >= 0, and NaN fails.
    """
    arr = _shaped_pv(p, n)
    if 0 < arr.size << n <= _GATHER_MAX_ENTRIES * n:  # arr.size << n is n * rows * 2^n
        factors = np.concatenate((1.0 - arr, arr), axis=-1)
        if not np.minimum.reduce(factors, axis=None) >= 0.0:
            raise DomainError(_OUT_OF_BOX)
        if selector is None:
            selector = _locus_selector(n)
        return np.multiply.reduce(factors.take(selector, axis=-1), axis=-2)
    arr = _as_pv(arr, n)
    q = 1.0 - arr
    probs = np.empty(arr.shape[:-1] + (1 << n,), dtype=np.float64)
    probs[..., 0] = q[..., 0]
    probs[..., 1 << (n - 1)] = arr[..., 0]
    for i in range(1, n):
        s = 1 << (n - 1 - i)
        filled = probs[..., :: 2 * s]
        np.multiply(filled, arr[..., i : i + 1], out=probs[..., s :: 2 * s])
        filled *= q[..., i : i + 1]
    return probs if order is None else probs.take(order, axis=-1)


# ---------------------------------------------------------------------------
# tournament distributions and drift
# ---------------------------------------------------------------------------

def _prefix_sums(t: _SpecTables, p):
    """Pr(z|p) sorted by fitness, and at each of its positions the sums of
    Pr(z|p) over z strictly below / tied with / strictly above that
    position's fitness; all four (..., 2^n), in the fitness order of ``t``.

    Where :func:`sampling_probs` would gather, the selector in ``t`` has its
    columns in fitness order, so the product comes out sorted; elsewhere the
    doubling loop's output is sorted by one gather (:func:`_product`).
    Either way every entry is the product sampling_probs computes. On an
    injective spec every tie group has one member, so the group sums are the
    sorted probabilities themselves and the tied sum is the first array
    (returned as is, not copied); the grouping passes are skipped there.
    """
    probs = _product(p, t.n, t.selector, t.order)
    if t.group_starts.size == t.order.size:
        s_le = np.add.accumulate(probs, axis=-1)
        s_eq = probs
    else:
        group_sums = np.add.reduceat(probs, t.group_starts, axis=-1)
        s_le = np.add.accumulate(group_sums, axis=-1).take(t.group_of, axis=-1)
        s_eq = group_sums.take(t.group_of, axis=-1)
    s_gt = np.subtract(s_le[..., -1:], s_le)  # the last position's s_le is the total
    s_lt = np.subtract(s_le, s_eq, out=s_le)
    return probs, s_lt, s_eq, s_gt


def winner_probs(p, spec: FitnessSpec) -> np.ndarray:
    """Pr(y wins | p) for all y: Pr(y|p) * (sum_{g<g(y)} + sum_{g<=g(y)}) Pr(z|p)."""
    t = _tables(spec)
    probs, s_lt, s_eq, _ = _prefix_sums(t, p)
    return (probs * (2.0 * s_lt + s_eq)).take(t.rank, axis=-1)


def loser_probs(p, spec: FitnessSpec) -> np.ndarray:
    """Pr(y loses | p) for all y: Pr(y|p) * (sum_{g>g(y)} + sum_{g>=g(y)}) Pr(z|p)."""
    t = _tables(spec)
    probs, _, s_eq, s_gt = _prefix_sums(t, p)
    return (probs * (2.0 * s_gt + s_eq)).take(t.rank, axis=-1)


def _bit_sums(w: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """sum_y bits[y, i] w(y) for each locus i, shape (..., n), with w in
    index order and ``bits`` a (2^n, n) bit matrix or a multiple of one.

    Every row goes through its own (1, 2^n) @ (2^n, n) product. A plain
    ``w @ bits`` lets BLAS pick gemv or gemm by the batch's shape, and the
    two round differently, so a row's last bits would depend on its batch.
    """
    return (w[..., None, :] @ bits)[..., 0, :]


def drift(p, spec: FitnessSpec) -> np.ndarray:
    """Expected update direction f(p) = E[winner - loser | p], shape (..., n).

    f_i(p) = 2 sum_y y_i Pr(y|p) [sum_{g(z)<g(y)} Pr(z|p) - sum_{g(z)>g(y)} Pr(z|p)],
    evaluated through fitness-sorted prefix sums in O(2^n * n). The weights
    are built in fitness order and put back in index order just before the
    sum over y, so the product sees the same operands in the same order
    whatever order built them. The factor 2 sits in the bit matrix,
    :func:`_twice_bits`. Exactly zero at every deterministic configuration.
    """
    t = _tables(spec)
    probs, s_lt, _, s_gt = _prefix_sums(t, p)
    w = np.subtract(s_lt, s_gt, out=s_lt)
    w *= probs
    return _bit_sums(w.take(t.rank, axis=-1), t.twice_bits)


def drift_naive(p, spec: FitnessSpec) -> np.ndarray:
    """f(p) via the winner/loser distributions: sum_y y (Pr_win(y) - Pr_lose(y)).

    Algebraically identical to :func:`drift`, but not independent of it:
    both share :func:`_prefix_sums` and the sampling product, so comparing
    the two checks the algebra of the two formulae, not their arithmetic.
    The independent oracles are ``reference_drift`` and ``pair_oracle`` in
    the test suite's ``conftest.py``.
    """
    return _bit_sums(winner_probs(p, spec) - loser_probs(p, spec), all_bit_matrix(spec.n))


# ---------------------------------------------------------------------------
# Jacobians at corners and in the interior
# ---------------------------------------------------------------------------

def corner_spectra(spec: FitnessSpec, indices=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the corner Jacobians and local-maximum flags, one row
    per corner index (default: all 2^n, in order), exact for every spec:
    eigenvalue m is 2 times the sign of the fitness change from flipping
    locus m (0.0 on a tie, where the first-sample-wins rule cancels the two
    orders of the entrants); a corner is a local maximum if no neighbor is fitter."""
    signs = neighbor_signs(spec, indices)
    return 2.0 * signs, (signs <= 0).all(axis=1)


def jacobian_analytic(corner, spec: FitnessSpec) -> np.ndarray:
    """Exact Jacobian of f at a corner of [0,1]^n, an (n, n) diagonal matrix
    whose entries are the corner's eigenvalues (injective specs only)."""
    idx = int(_as_bits(corner, spec.n) @ place_values(spec.n))
    require_injective(spec, "jacobian_analytic")
    return np.diag(corner_spectra(spec, [idx])[0][0])


def jacobian_numeric(p, spec: FitnessSpec, h: float) -> np.ndarray:
    """Central-difference Jacobian of f at p: column m is
    (f(p + h e_m) - f(p - h e_m)) / (2h)."""
    arr = _as_pv(p, spec.n)
    if arr.ndim != 1:
        raise DimensionError("jacobian_numeric expects a single probability vector")
    if not _real(h, "finite-difference step") > 0.0:
        raise DomainError(f"finite-difference step must be positive, got {h}")
    if np.any(arr - h < 0.0) or np.any(arr + h > 1.0):
        raise DomainError("p +- h e_m leaves [0,1]^n; pull the point inward or shrink h")
    eye = np.eye(spec.n)
    points = np.concatenate([arr + h * eye, arr - h * eye], axis=0)  # (2n, n)
    f = drift(points, spec)
    return (f[: spec.n] - f[spec.n :]).T / (2.0 * h)
