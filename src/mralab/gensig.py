"""Signal generators for the dilute and moderate sparsity regimes, plus
the collision-freeness test of a support.

A support's difference multiset is held as one length-L int array of lag
counts (`lag_counts`), the form `beltway` solves from and `probes` tests.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ring import Signal, integer, number, std_offset

#: rejection-sampling retries before falling back to greedy construction
COLLISION_FREE_RETRY_BUDGET = 10_000


class GenerationError(RuntimeError):
    """A generator could not produce a signal within its retry budget."""


@dataclass(frozen=True)
class DiluteClassSpec:
    """Admissible collision-free sparse class: magnitude band [m, M], slack eps.
    L and s are integers, m, M and eps positive finite numbers."""

    L: int
    s: int
    m: float
    M: float
    eps: float

    def __post_init__(self):
        integer("L", self.L, 2)
        integer("s", self.s, 1)
        if number("m", self.m, True) > number("M", self.M, True):
            raise ValueError("need m <= M, got m=%r and M=%r" % (self.m, self.M))
        number("eps", self.eps, True)
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


def lag_counts(support, L: int) -> np.ndarray:
    """The difference multiset of a support (points mod L, repeats once) as a
    length-L int array: counts[d] ordered pairs of points with i - j = d mod L,
    so counts[0] == 0 and counts[d] == counts[-d]."""
    pts = np.flatnonzero(np.bincount(np.fromiter(support, dtype=np.int64) % L))
    if not pts.size:
        raise ValueError("support must be nonempty")
    counts = np.bincount(((pts[:, None] - pts) % L).ravel(), minlength=L)
    counts[0] = 0
    return counts


def is_collision_free(support, L: int) -> bool:
    """True iff every nonzero cyclic difference of the support occurs at most once."""
    return bool(lag_counts(support, L).max() <= 1)


def _greedy_collision_free(L: int, s: int, rng: np.random.Generator):
    """Incrementally add random points that keep the difference multiset simple."""
    pts = [int(rng.integers(L))]
    candidates = list(range(L))
    for _ in range(s - 1):
        rng.shuffle(candidates)
        for x in candidates:
            if x not in pts and is_collision_free(pts + [x], L):
                pts.append(x)
                break
        else:
            return None
    return pts


def gen_collision_free(spec: DiluteClassSpec, rng: np.random.Generator) -> Signal:
    """Draw a dilute-class signal: collision-free support of size s, magnitudes
    uniform in [m, M] with independent random signs."""
    L, s = spec.L, spec.s
    for _ in range(COLLISION_FREE_RETRY_BUDGET):
        cand = rng.choice(L, size=s, replace=False)
        if is_collision_free(cand, L):
            support = [int(c) for c in cand]
            break
    else:
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

