"""Pseudo-boolean fitness landscapes over fixed-length bitstrings.

A solution is an ordered sequence of n bits; locus 1 is the leftmost /
most significant position. Inside the package a solution is its int64
index ``sum(bits[i] << (n-1-i))``: bits (tuples or 0/1 arrays) are read
only from the user, and bitstrings are written only to artifacts.

The module provides the built-in fitness families, each declared once:
its ``_KINDS`` entry names its fields, the ``FitnessSpec`` constructor
checks them, and its ``_fitness`` branch is its one formula. It also provides
an exact injectivity check and ``neighbor_signs``, the one neighbor table. All
fitness values for the built-in families are exactly representable in
binary floating point, so equality tests need no tolerance. Every number
computed for a spec comes from its 2^n fitness table, so the constructor
refuses lengths above the constant ``ENUMERATION_CAP`` instead of thrashing.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, TheoremScopeError

# Enumeration-based operations (injectivity, local maxima, drift) do 2^n
# work; 2^16 tables are still instant, anything larger is refused.
ENUMERATION_CAP = 16
# A solution's index is an int64 sum of place values (place_values). Up to
# this n, 2^n (the count of solutions) and every index fit in int64, so
# bits_to_index never wraps.
_MAX_INDEX_N = 62


# ---------------------------------------------------------------------------
# bitstring helpers
# ---------------------------------------------------------------------------

def bits_to_index(bits) -> int:
    """Integer index of a bit sequence, most significant locus first."""
    bits = _as_bits(bits)
    return int(bits @ place_values(bits.size))


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Bit tuple of length n for an integer index (inverse of bits_to_index)."""
    index, n = _integer(index, "index"), _integer(n, "solution length")
    if n < 0 or not 0 <= index < (1 << n):
        raise DomainError(f"index {index} out of range for n={n}")
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def bits_to_string(bits) -> str:
    return "".join(map(str, _as_bits(bits).tolist()))


def string_to_bits(s: str) -> tuple[int, ...]:
    if not s or any(c not in "01" for c in s):
        raise DomainError(f"not a bitstring: {s!r}")
    return tuple(int(c) for c in s)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: every table is shared by its callers."""
    array.setflags(write=False)
    return array


@functools.cache
def place_values(n: int) -> np.ndarray:
    """int64 place values 2^(n-1), ..., 2, 1: a solution's bits (locus 1
    first) times these sum to its index. Read-only, one per n; past
    ``_MAX_INDEX_N`` an index would not fit in int64, so CapacityError."""
    if n > _MAX_INDEX_N:
        raise CapacityError(f"n={n} exceeds {_MAX_INDEX_N}: 2^n and every index must fit in int64")
    return _read_only(1 << np.arange(n - 1, -1, -1, dtype=np.int64))


@functools.cache
def all_bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) float64 matrix whose row i is index_to_bits(i, n). Read-only,
    one per n, shared by every spec of that length."""
    idx = np.arange(1 << n, dtype=np.int64)
    return _read_only((idx[:, None] & place_values(n) != 0).astype(np.float64))


# ---------------------------------------------------------------------------
# fitness specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitnessSpec:
    """A deterministic fitness function over {0,1}^n, checked here however it is built.

    A kind takes the fields its ``_KINDS`` entry names and no other; one without "n"
    among them derives n from its field, and takes a given n as a check. A ``table``
    may be a bitstring-to-fitness mapping; it and ``weights`` are stored as float tuples.
    """

    kind: str
    n: int | None = None
    weights: tuple[float, ...] | None = None
    epsilon: float | None = None
    table: tuple[float, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_kind_fields(self.kind, [f.name for f in fields(self) if getattr(self, f.name) is not None])
        names, put = _KINDS[self.kind], functools.partial(object.__setattr__, self)
        for name in names:
            if getattr(self, name) is None:
                raise DomainError(f"{self.kind} spec needs field {name!r}")
        if self.weights is not None:
            put("weights", _finite(self.weights, "weights"))
            if not all(math.isfinite(sum(w for w in self.weights if w * sign > 0)) for sign in (1, -1)):
                raise DomainError("weights' positive or negative sum, which bounds every fitness, overflows")
        if self.table is not None:
            put("table", _finite(_table_values(self.table), "table"))
        if self.seed is not None:
            put("seed", _integer(self.seed, "seed"))
            if self.seed < 0:  # numpy.random.SeedSequence takes no negative seed
                raise DomainError(f"seed must be >= 0, got {self.seed}")
        if "n" not in names:  # n weights, or 2^n table values
            derived = len(self.weights) if self.table is None else max(len(self.table).bit_length() - 1, 0)
            put("n", derived if self.n is None else self.n)
        put("n", _integer(self.n, "solution length"))
        if "n" not in names and self.n != derived:
            raise DomainError(f"{self.kind} spec has n={self.n}, but its field {names[0]!r} gives {derived}")
        if self.n < 1:
            raise DomainError(f"solution length must be a positive integer, got {self.n!r}")
        if self.n > ENUMERATION_CAP:  # every spec has its 2^n tables
            raise CapacityError(f"n={self.n} exceeds the enumeration cap {ENUMERATION_CAP}")
        if self.table is not None and len(self.table) != 1 << self.n:
            raise DomainError(f"table needs 2^{self.n} = {1 << self.n} values, got {len(self.table)}")
        if self.epsilon is not None:
            put("epsilon", _finite([self.epsilon], "epsilon")[0])
            if not 0.0 < self.epsilon < 2.0 ** (1 - self.n):
                raise DomainError(f"epsilon must lie in (0, 2^(1-n)) = (0, {2.0 ** (1 - self.n)}), "
                                  f"got {self.epsilon}")
        # the only home of this object's 2^n tables (fitness_values and
        # drift's fitness order), built on first use and freed with it; an
        # equal spec built separately builds its own
        put("_memo", {})

    def __reduce__(self):
        # rebuilt from its fields: the memo is a cache, not state
        return (FitnessSpec, (self.kind, self.n, self.weights, self.epsilon, self.table, self.seed))

    @property
    def num_solutions(self) -> int:
        return 1 << self.n


def binval(n: int) -> FitnessSpec:
    """g(y) = sum_i y_i 2^(n-i): the binary value of the bitstring."""
    return FitnessSpec(kind="binval", n=n)


def linear(weights) -> FitnessSpec:
    """g(y) = sum_i w_i y_i with one weight per locus.

    Injective iff all subset sums of the weights are distinct
    (e.g. superincreasing weights); use :func:`is_injective` to verify.
    """
    return FitnessSpec(kind="linear", weights=weights)


def perturbed_onemax(n: int, epsilon: float) -> FitnessSpec:
    """g(y) = onemax(y) + epsilon * binval(y), with 0 < epsilon < 2^(1-n).

    The perturbation breaks onemax's ties; epsilon at or below 2^-n
    additionally keeps the onemax levels ordered.
    """
    return FitnessSpec(kind="perturbed_onemax", n=n, epsilon=epsilon)


def table_spec(values, n: int | None = None) -> FitnessSpec:
    """Explicit fitness table.

    ``values`` is either a mapping from bitstring (most significant locus
    first) to fitness, covering all 2^n solutions, or a sequence of 2^n
    values ordered by solution index. Table specs may be non-injective;
    theorem-dependent operations will refuse them unless
    :func:`is_injective` holds.
    """
    return FitnessSpec(kind="table", n=n, table=values)


def random_injective(n: int, seed: int) -> FitnessSpec:
    """A seeded pseudo-random permutation of {0, 1, ..., 2^n - 1}.

    Injective by construction; rugged, typically with several local maxima.
    The seed feeds ``numpy.random.SeedSequence``, so it must be >= 0.
    """
    return FitnessSpec(kind="random_injective", n=n, seed=seed)


# each kind's fields besides "kind", in JSON key order; a kind without "n" among them derives n
_KINDS = {
    "binval": ("n",),
    "linear": ("weights",),
    "perturbed_onemax": ("n", "epsilon"),
    "table": ("table",),
    "random_injective": ("n", "seed"),
}
SPEC_KINDS = tuple(_KINDS)


def _check_kind_fields(kind, given) -> None:
    """Refuse an unknown kind, and a field named in ``given`` that a ``kind`` spec does not take."""
    if kind not in SPEC_KINDS:  # a tuple, so an unhashable kind is refused too
        raise DomainError(f"unknown fitness kind {kind!r}")
    stray = set(given) - {"kind", "n", *_KINDS[kind]}
    if stray:
        raise DomainError(f"{kind} spec does not take fields {sorted(stray, key=str)}")


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _table_values(table):
    """A table's values by solution index; a mapping's keys are every bitstring of one length."""
    if not isinstance(table, dict):
        return table
    if not table:
        raise DomainError("empty fitness table")
    keys = sorted(table, key=str)
    n = len(str(keys[0]))
    if len(keys) != 1 << n or keys != [format(i, f"0{n}b") for i in range(1 << n)]:
        raise DomainError(f"table must cover all 2^{n} bitstrings exactly once")
    return [table[key] for key in keys]


def _finite(values, name: str) -> tuple[float, ...]:
    """Real numbers (no str or bool) as finite floats, which every comparison needs."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise DomainError(f"{name} must be numbers, got {values!r}")
    values = list(values)
    bad = {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if bad:  # one type test per distinct type; the message names the first bad value
        raise DomainError(f"{name} must be numbers, got {next(v for v in values if type(v) in bad)!r}")
    out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{name} must be finite; NaN and infinities are refused")
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def fitness_values(spec: FitnessSpec) -> np.ndarray:
    """All 2^n fitness values, indexed by solution index. Read-only, built
    once per spec object and kept in its memo."""
    vals = spec._memo.get("values")
    if vals is None:
        vals = spec._memo["values"] = _read_only(_fitness(spec))
    return vals


def _fitness(spec: FitnessSpec) -> np.ndarray:
    """Each kind's one formula, over every solution: the 2^n table."""
    if spec.kind == "binval":
        return np.arange(spec.num_solutions, dtype=np.float64)
    if spec.kind == "linear":
        return all_bit_matrix(spec.n) @ np.asarray(spec.weights, dtype=np.float64)
    if spec.kind == "perturbed_onemax":
        return all_bit_matrix(spec.n).sum(axis=-1) + spec.epsilon * np.arange(spec.num_solutions)
    if spec.kind == "table":
        return np.array(spec.table, dtype=np.float64)
    # random_injective: a seeded permutation of 0, 1, ..., 2^n - 1
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return rng.permutation(spec.num_solutions).astype(np.float64)


def _as_bits(y, n: int | None = None) -> np.ndarray:
    """The one reader of a solution's bits: a 1-D sequence (of length n, if
    given) whose entries are exactly 0 or 1, as int64. A str is refused with
    DimensionError, since :func:`string_to_bits` reads bitstrings."""
    arr = np.asarray(y)
    if arr.ndim != 1 or n not in (None, arr.shape[0]):
        raise DimensionError(f"solution bits must be 1-D{'' if n is None else f' of length n={n}'}, "
                             f"got shape {arr.shape}")
    ok = (arr == 0) | (arr == 1)  # np.isin cost most of evaluate's time
    if not ok.all():
        raise DomainError(f"solution bits must be 0 or 1, got {arr[~ok].tolist()[0]!r}")
    return arr.astype(np.int64)


def evaluate(spec: FitnessSpec, y) -> float:
    """Fitness of solution y under spec. Pure and deterministic."""
    # read from the table, so evaluate agrees bit for bit with every lookup
    return float(fitness_values(spec)[_as_bits(y, spec.n) @ place_values(spec.n)])


def is_injective(spec: FitnessSpec) -> bool:
    """True iff all 2^n fitness values are pairwise distinct (exact compare)."""
    s = np.sort(fitness_values(spec))  # not np.unique, which imports numpy.ma
    return not (s[1:] == s[:-1]).any()


def require_injective(spec: FitnessSpec, operation: str) -> None:
    """Guard for theorem-dependent operations; raises TheoremScopeError."""
    if not is_injective(spec):
        raise TheoremScopeError(
            f"{operation} requires an injective fitness (all 2^n values pairwise "
            "distinct); this spec has duplicate values, so the request is outside "
            "theorem scope"
        )


# ---------------------------------------------------------------------------
# local maxima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalMaxReport:
    """The local maxima of a spec: their increasing int64 indices and strict flags."""

    indices: np.ndarray
    strict: np.ndarray


def neighbor_signs(spec: FitnessSpec, rows=None) -> np.ndarray:
    """int8 (len(rows), n): entry m is +1, 0 or -1 as flipping locus m raises,
    keeps or lowers the fitness of each index in ``rows`` (default: all 2^n;
    anything but integers in [0, 2^n) raises DomainError).
    Filled one locus at a time: no (rows, n) index or value matrix is built."""
    vals = fitness_values(spec)
    idx = np.arange(spec.num_solutions) if rows is None else np.asarray(rows)
    if rows is not None and (idx.ndim != 1 or idx.size and (
            idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= spec.num_solutions)):
        raise DomainError(f"corner indices must be 1-D integers in [0, {spec.num_solutions})")
    idx = idx.astype(np.int64, copy=False)
    own = vals[idx]
    signs = np.empty((idx.size, spec.n), dtype=np.int8)
    for m, bit in enumerate(place_values(spec.n).tolist()):
        other = vals[idx ^ bit]
        np.subtract(other > own, other < own, out=signs[:, m], dtype=np.int8)
    return signs


def enumerate_local_maxima(spec: FitnessSpec) -> LocalMaxReport:
    """Exhaustive scan of :func:`neighbor_signs`: y is a local maximum iff no
    Hamming-1 neighbor is fitter; strict iff every neighbor is less fit."""
    signs = neighbor_signs(spec)
    found = np.flatnonzero((signs <= 0).all(axis=1))
    return LocalMaxReport(indices=found, strict=(signs[found] < 0).all(axis=1))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def spec_to_json_dict(spec: FitnessSpec) -> dict:
    """JSON object form: {"kind", "n"} plus the fields of its kind in ``_KINDS``.

    Table keys are bitstrings written most significant locus first.
    """
    out: dict = {"kind": spec.kind, "n": spec.n}
    for name in _KINDS[spec.kind]:
        value = getattr(spec, name)
        if name == "table":
            value = {format(i, f"0{spec.n}b"): v for i, v in enumerate(value)}
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def spec_from_json_dict(obj: dict) -> FitnessSpec:
    """Inverse of spec_to_json_dict, the one parser of spec input (the CLI turns its flags into this
    object). It refuses a key its kind does not take, even a null one; FitnessSpec checks the rest."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("fitness spec JSON must be an object with a 'kind' field")
    _check_kind_fields(obj["kind"], obj)
    return FitnessSpec(**obj)
