"""Direct-product query graphs and sampler diagnostics.

The reduction's query structure, abstracted: a base instance x is embedded
at a uniform slot of a k-tuple whose other slots are i.i.d. uniform. That
defines a bipartite graph between base instances and tuples whose sampler
quality controls how well per-tuple success transfers back to per-instance
success. check_sampler measures, for a dense tuple set U, the fraction of
base instances whose conditional hit rate falls below (1 - c) times the
global density; a (delta, c)-sampler keeps that fraction at most delta.

Tuples over the base domain F_p^dim are encoded as integers in mixed radix
|X| = p^dim (slot 0 least significant). A tuple set is its membership
indicator, vectorized over int64 tuple-index arrays.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .field import PrimeField

# Tuple domains must stay indexable by int64 (with headroom for the mixed
# radix arithmetic); exhaustive sweeps cut off far earlier.
MAX_TUPLE_DOMAIN = 2**62
MAX_EXHAUSTIVE_TUPLES = 2**26

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

Indicator = Callable[[np.ndarray], np.ndarray]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays (wrapping arithmetic)."""
    z = (x + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class QueryGraph:
    """The k-fold direct-product embedding graph over the base domain F_p^dim,
    whose x_size = p^dim instances are addressed by integer index."""

    def __init__(self, field: PrimeField, dim: int, k: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if k < 1:
            raise ValueError(f"copy count must be positive, got {k}")
        self.k = k
        self.x_size = field.modulus**dim
        self.y_size = self.x_size**k
        if self.y_size > MAX_TUPLE_DOMAIN:
            raise ValueError(f"tuple domain of size {self.y_size} exceeds {MAX_TUPLE_DOMAIN}")

    def embed_indices(self, x: int, slot: int | np.ndarray, co_indices: np.ndarray) -> np.ndarray:
        """Tuple indices that place x at `slot` with the given co-tuples.

        co_indices enumerates the k-1 remaining slots packed in the same
        mixed radix (slots below `slot` in the low digits). `slot` is one
        slot for every co-tuple or an array of slots, one per co-tuple.
        """
        s = self.x_size
        lo_mod = s**slot
        low = co_indices % lo_mod
        high = co_indices // lo_mod
        return low + x * lo_mod + high * (lo_mod * s)


def check_density(density: float) -> None:
    """A dense set's density rule: 0 < density <= 1."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")


def pseudorandom_set(density: float, seed: int) -> Indicator:
    """The indicator of a stable pseudorandom tuple set: a keyed hash threshold."""
    check_density(density)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if density >= 1.0:
        return lambda idx: np.ones(len(idx), dtype=bool)
    threshold = np.uint64(int(density * 2.0**64))
    seed_u = np.uint64(seed)

    def indicator(idx: np.ndarray) -> np.ndarray:
        h = _splitmix64(idx.astype(np.uint64) * _GOLDEN + seed_u)
        return h < threshold

    return indicator


def check_exhaustive(graph: QueryGraph) -> None:
    """The exact checks' bound: at most MAX_EXHAUSTIVE_TUPLES tuples, and co-tuples times copies."""
    if graph.y_size > MAX_EXHAUSTIVE_TUPLES:
        raise ValueError(f"tuple domain of size {graph.y_size} too large for enumeration")
    if graph.x_size ** (graph.k - 1) * graph.k > MAX_EXHAUSTIVE_TUPLES:
        raise ValueError("co-tuple domain too large for enumeration")


def density_exact(graph: QueryGraph, indicator: Indicator) -> float:
    """Exact measure of the set under the uniform tuple distribution."""
    if graph.y_size > MAX_EXHAUSTIVE_TUPLES:
        raise ValueError(f"tuple domain of size {graph.y_size} too large for enumeration")
    idx = np.arange(graph.y_size, dtype=np.int64)
    return float(np.mean(indicator(idx)))


def conditional_hit_rate_exact(graph: QueryGraph, indicator: Indicator, x: int) -> float:
    """Exact Pr[tuple in U | instance x], averaging over slots and co-tuples."""
    if not 0 <= x < graph.x_size:
        raise ValueError(f"instance {x} out of range")
    co_count = graph.x_size ** (graph.k - 1)
    if co_count * graph.k > MAX_EXHAUSTIVE_TUPLES:
        raise ValueError("co-tuple domain too large for enumeration")
    co = np.arange(co_count, dtype=np.int64)
    total = 0.0
    for slot in range(graph.k):
        members = indicator(graph.embed_indices(x, slot, co))
        total += float(np.mean(members))
    return total / graph.k


def violation_fraction_exact(graph: QueryGraph, indicator: Indicator, c: float) -> tuple[float, float]:
    """Exact sampler check over every base instance.

    Returns (violation fraction, exact density): the fraction of x whose
    conditional hit rate falls strictly below (1 - c) times the density.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    check_exhaustive(graph)
    density = density_exact(graph, indicator)
    threshold = (1.0 - c) * density
    violations = sum(conditional_hit_rate_exact(graph, indicator, x) < threshold for x in range(graph.x_size))
    return violations / graph.x_size, density


def check_sampler_parameters(c: float, delta: float) -> None:
    """sampler-check's parameter rule: 0 < c < delta < 1."""
    if not 0.0 < c < delta < 1.0:
        raise ValueError(f"parameters must satisfy 0 < c < delta < 1, got c={c}, delta={delta}")


def check_sampler(
    graph: QueryGraph,
    indicator: Indicator,
    c: float,
    x_samples: int,
    y_samples_per_x: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo sampler diagnostic for a dense tuple set.

    Estimates the global density (exactly when the tuple domain is small),
    then for x_samples uniform base instances estimates the conditional
    hit rate from y_samples_per_x random embeddings each. An instance
    violates when its conditional rate falls below (1 - c) * density.
    Returns (violation fraction, density), as violation_fraction_exact does.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if x_samples < 1 or y_samples_per_x < 1:
        raise ValueError("sample counts must be positive")

    if graph.y_size <= MAX_EXHAUSTIVE_TUPLES:
        density = density_exact(graph, indicator)
    else:
        draws = max(x_samples * y_samples_per_x, 10000)
        idx = rng.integers(0, graph.y_size, size=draws, dtype=np.int64)
        density = float(np.mean(indicator(idx)))
    threshold = (1.0 - c) * density

    violations = 0
    for _ in range(x_samples):
        x = int(rng.integers(graph.x_size))
        slots = rng.integers(0, graph.k, size=y_samples_per_x)
        co = rng.integers(0, graph.x_size ** (graph.k - 1), size=y_samples_per_x, dtype=np.int64)
        hits = int(np.count_nonzero(indicator(graph.embed_indices(x, slots, co))))
        violations += hits / y_samples_per_x < threshold

    return violations / x_samples, density


# ---------------------------------------------------------------------------
# parameter conditions
# ---------------------------------------------------------------------------


def lemma_condition(k: int, c: float, delta: float, eps: float) -> bool:
    """Sampler adequacy for density eps: 2*exp(-k*c^2*delta/8) <= c*eps."""
    if k < 1:
        raise ValueError(f"copy count must be positive, got {k}")
    return 2.0 * math.exp(-k * c * c * delta / 8.0) <= c * eps


def theorem_condition(k: int, delta: float, eps: float) -> bool:
    """Density reachable at k copies: eps >= 4*exp(-delta*k/32)."""
    if k < 1:
        raise ValueError(f"copy count must be positive, got {k}")
    return eps >= 4.0 * math.exp(-delta * k / 32.0)
