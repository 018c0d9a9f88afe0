"""Signal generators for the dilute and moderate sparsity regimes, plus
the collision-freeness test of a support.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ring import Signal, std_offset

#: rejection-sampling retries before falling back to greedy construction
COLLISION_FREE_RETRY_BUDGET = 10_000


class GenerationError(RuntimeError):
    """A generator could not produce a signal within its retry budget."""


@dataclass(frozen=True)
class DiluteClassSpec:
    """Admissible collision-free sparse class: magnitude band [m, M], slack eps."""

    L: int
    s: int
    m: float
    M: float
    eps: float

    def __post_init__(self):
        if not (0 < self.m <= self.M):
            raise ValueError("need 0 < m <= M")
        if self.eps <= 0:
            raise ValueError("need eps > 0")
        if self.s < (2 + self.eps) * self.M**2 / self.m**2:
            raise ValueError(
                "class admissibility requires s >= (2+eps) M^2/m^2; "
                "got s=%d, bound=%.3f" % (self.s, (2 + self.eps) * self.M**2 / self.m**2)
            )
        if self.s * (self.s - 1) > self.L - 1:
            raise ValueError(
                "collision-free support of size %d is infeasible in Z_%d "
                "(needs s(s-1) <= L-1)" % (self.s, self.L)
            )

    def curvature_constant(self) -> float:
        """sqrt(2 eps / (2 + eps)), the normalized second-moment curvature floor."""
        return float(np.sqrt(2 * self.eps / (2 + self.eps)))


def difference_multiset(support, L: int) -> Counter:
    """All ordered pairwise differences i - j (i != j) mod L, with multiplicities.

    Keys are natural residues in 1..L-1.
    """
    pts = sorted(int(i) % L for i in support)
    if not pts:
        raise ValueError("support must be nonempty")
    out: Counter = Counter()
    for i in pts:
        for j in pts:
            if i != j:
                out[(i - j) % L] += 1
    return out


def is_collision_free(support, L: int) -> bool:
    """True iff every nonzero cyclic difference of the support occurs exactly once."""
    pts = set(int(i) % L for i in support)
    if not pts:
        raise ValueError("support must be nonempty")
    if len(pts) == 1:
        return True
    diffs = difference_multiset(pts, L)
    return max(diffs.values()) == 1


def fresh_lags(x: int, points, used: set, L: int):
    """The set of lags +-(x - y) mod L to the points y, or None when one of
    them repeats: a lag in `used`, another new lag, or 0."""
    new = set()
    for y in points:
        d1, d2 = (x - y) % L, (y - x) % L
        # d1 == d2 (lag 0, or L/2) is a repeated difference all by itself
        if d1 == d2 or d1 in used or d2 in used or d1 in new or d2 in new:
            return None
        new.add(d1)
        new.add(d2)
    return new


def _greedy_collision_free(L: int, s: int, rng: np.random.Generator):
    """Incrementally add random points that keep the difference multiset simple."""
    pts = [int(rng.integers(L))]
    seen = set()
    candidates = list(range(L))
    for _ in range(s - 1):
        rng.shuffle(candidates)
        for x in candidates:
            new = fresh_lags(x, pts, seen, L)
            if new is not None:
                pts.append(x)
                seen |= new
                break
        else:
            return None
    return pts


def gen_collision_free(spec: DiluteClassSpec, rng: np.random.Generator) -> Signal:
    """Draw a dilute-class signal: collision-free support of size s, magnitudes
    uniform in [m, M] with independent random signs."""
    L, s = spec.L, spec.s
    support = None
    for _ in range(COLLISION_FREE_RETRY_BUDGET):
        cand = rng.choice(L, size=s, replace=False)
        if is_collision_free(cand, L):
            support = [int(c) for c in cand]
            break
    if support is None:
        support = _greedy_collision_free(L, s, rng)
    if support is None:
        raise GenerationError(
            "could not build a collision-free support of size %d in Z_%d" % (s, L)
        )
    mags = rng.uniform(spec.m, spec.M, size=s)
    signs = rng.choice([-1.0, 1.0], size=s)
    return Signal.from_support(L, dict(zip(support, mags * signs)))


def positive_part(L: int) -> np.ndarray:
    """Z_L^+ = {0, ..., floor((L-1)/2)} of the standard parametrization."""
    return np.arange(std_offset(L) + 1)


def gen_symm_bernoulli_gaussian(L: int, s: int, zeta: float, rng: np.random.Generator) -> Signal:
    """Symmetric Bernoulli-Gaussian draw: positive-part support with inclusion
    probability s/L, mirrored about the origin, N(0, zeta^2) values mirrored too."""
    if not 1 <= s <= L:
        raise ValueError("need 1 <= s <= L")
    pos = positive_part(L)
    mask = rng.random(pos.size) < s / L
    chosen = pos[mask]
    if chosen.size == 0:
        warnings.warn("Bernoulli-Gaussian draw produced an empty support", stacklevel=2)
        return Signal.zeros(L)
    vals = rng.normal(0.0, zeta, size=chosen.size)
    entries = {}
    for k, x in zip(chosen, vals):
        entries[int(k)] = x
        entries[int(-k)] = x
    return Signal.from_support(L, entries)


def gen_symm_interval(L: int, s: int, zeta: float, rng: np.random.Generator) -> Signal:
    """Symmetric Gaussian signal supported exactly on [-s, s]."""
    if 2 * s + 1 > L:
        raise ValueError("interval [-s, s] does not fit in Z_%d" % L)
    vals = rng.normal(0.0, zeta, size=s + 1)
    vals[vals == 0.0] = zeta * 1e-12  # keep the support exactly [-s, s]
    entries = {}
    for k in range(s + 1):
        entries[k] = vals[k]
        entries[-k] = vals[k]
    return Signal.from_support(L, entries)

