"""Observation model for alignment under random cyclic shifts, its mixture
likelihood, Monte-Carlo KL estimation, and the restricted MLE via EM.

All three share one path: `ring.orbit_index` gathers theta's orbit matrix
scaled by 1/sigma^2 (row G holds G theta / sigma^2), one matrix product gives
the logits <y_i, G theta> / sigma^2 of a block of observations, and `_softmax`
gives their log-sum-exps and posterior weights.  A dataset yields bare blocks
of observations, from memory or, past IN_MEMORY_LIMIT, from a mapped file.
Every tiled loop (these blocks, `kl_monte_carlo`'s tiles, `empirical_moments`
and the probes' trial tiles) takes its rows by one rule, `tile_rows(row_bytes)`:
the one TILE_BYTES budget over the bytes its temporaries take per row.
A seed has one draw stream wherever the rows are kept: `simulate` draws
DEFAULT_CHUNK rows at a time with `_draw_block` and keeps no latent shifts.
A block is drawn in place: one standard-normal fill scaled by sigma, plus
theta0's orbit rows, which gives the stream and the bits of
orbit[pick] + sigma * rng.normal(size=(m, L)).  `kl_monte_carlo` draws no
group element at all: every statistic it averages is a function of the
group-invariant mixture density, so theta0 + sigma z has the law it needs
(see its docstring), and it scores tiles of at most `tile_rows` rows, each
one normal fill shared by every sigma of a grid.
EM iterates one map F(theta) -> (project(M(E(theta))), loglik(theta), its
rounding bound, clamped) on length-L float64 arrays; `_em_map` builds it once
per fit, binding the orbit index, its fold index and the rows' norms.  The
M-step accumulates W @ Y and folds it onto Z_L once per pass, and the class's
projection reuses its per-L support positions.
A pass costs O(n L |G|); no FFT is taken, so a prime L costs no extra.

Precision: a Dataset holds its observations in float32, each draw rounded
from float64 a chunk at a time.  The likelihood and EM gather the scaled
orbit as float32 and run the logit product, `_softmax` and each block's
M-step product W @ Y in float32.  The sums are float64: each block's
log-sum-exps, the rows' squared norms and the M-step's sum over blocks; the
fold onto Z_L, the projection and theta stay float64.  `_softmax` keeps
float32 weights out of the subnormal range, and normalises them by one
reciprocal of the mass per column, not by dividing the (|G|, m) array.
`kl_monte_carlo` and `_draw_block` stay float64 throughout: KL is a small
difference of large log-likelihoods.
"""
from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .ring import (LengthMismatchError, Signal, integer, number, orbit_index, residues,
                   storage_index)

#: rows per `_draw_block` call in `simulate`; each chunk draws its picks, then
#: its normals, so this size fixes the random stream and the rows of every seed
DEFAULT_CHUNK = 65_536
#: bytes of per-row temporaries one tile of a tiled loop may hold (1 MiB)
TILE_BYTES = 2**20
#: observations of more bytes than this, at 4 L per float32 row, are drawn
#: into a mapped temporary file, not onto the heap
IN_MEMORY_LIMIT = 352_000_000
#: float32 machine epsilon (2^-23), the unit of EM's rounding bound on its log-likelihoods
EPS32 = float(np.finfo(np.float32).eps)
#: smallest normal float32; `_softmax` keeps float32 weights at or above it
TINY32 = float(np.finfo(np.float32).tiny)


def tile_rows(row_bytes: int) -> int:
    """Rows in one tile of a loop whose temporaries take row_bytes bytes
    per row: TILE_BYTES // row_bytes, and at least one (Goto and van de Geijn
    2008 size their blocks to the cache the same way)."""
    return max(1, TILE_BYTES // row_bytes)


@dataclass(frozen=True)
class MraConfig:
    """Model parameters: signal length, noise scale, acting group."""

    L: int
    sigma: float
    dihedral: bool = False

    def __post_init__(self):
        number("noise scale", self.sigma, True)
        integer("L", self.L, 2)


def check_sigma_grid(grid) -> tuple:
    """grid as a tuple of floats; a ValueError unless it is a non-empty list
    or tuple of positive finite numbers."""
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ValueError("sigma_grid must be a non-empty list of positive finite noise "
                         "scales, got %r" % (grid,))
    return tuple(number("sigma_grid entry", x, True) for x in grid)


@dataclass
class Dataset:
    """n float32 observations (rows, standard-parametrization order) plus provenance."""

    observations: np.ndarray
    config: MraConfig

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float32)
        if self.observations.ndim != 2 or self.observations.shape[1] != self.config.L:
            raise LengthMismatchError("observations must be n x L")

    @property
    def n(self) -> int:
        return self.observations.shape[0]

    @property
    def L(self) -> int:
        return self.config.L

    def blocks(self, row_bytes: int):
        """The rows in consecutive views of `tile_rows(row_bytes)` rows, for
        a reader whose temporaries take row_bytes bytes per row."""
        step = tile_rows(row_bytes)
        for lo in range(0, self.n, step):
            yield self.observations[lo:lo + step]


def _draw_block(orbit: np.ndarray, cfg: MraConfig, m: int, rng: np.random.Generator):
    """m float64 observations in standard order, drawn in place from theta0's
    orbit matrix: the latent picks shift + L flip (the row that (shift, flip)
    gives), one standard-normal fill scaled by sigma, and the picked rows
    added 2048 rows at a time.  The stream and bits are those of
    orbit[pick] + sigma * rng.normal(size=(m, L))."""
    pick = rng.integers(cfg.L, size=m)
    if cfg.dihedral:
        pick += cfg.L * rng.integers(2, size=m)
    rows = rng.standard_normal(size=(m, cfg.L))
    rows *= cfg.sigma
    for lo in range(0, m, 2048):
        rows[lo:lo + 2048] += orbit.take(pick[lo:lo + 2048], axis=0)
    return rows


def simulate(theta0: Signal, cfg: MraConfig, n: int, rng: np.random.Generator) -> Dataset:
    """Draw y_i = R_i theta0 + sigma * noise with uniform latent isometries.

    `_draw_block` draws DEFAULT_CHUNK rows at a time from rng, each chunk
    rounded into the float32 rows, so one float64 chunk is held.  Rows of at
    most IN_MEMORY_LIMIT bytes sit on the heap; more are written to a map of
    an anonymous temporary file (under TMPDIR), read-only once filled, which
    holds its own handle to the file and vanishes with the Dataset."""
    if theta0.L != cfg.L:
        raise LengthMismatchError("signal length %d vs config L=%d" % (theta0.L, cfg.L))
    orbit = theta0.values[orbit_index(cfg.L, cfg.dihedral)]
    if 4 * cfg.L * n <= IN_MEMORY_LIMIT:
        rows = np.empty((n, cfg.L), dtype=np.float32)
    else:
        with tempfile.TemporaryFile() as fh:
            rows = np.memmap(fh, dtype=np.float32, mode="w+", shape=(n, cfg.L))
    for lo in range(0, n, DEFAULT_CHUNK):
        rows[lo:lo + DEFAULT_CHUNK] = _draw_block(orbit, cfg, min(DEFAULT_CHUNK, n - lo), rng)
    if isinstance(rows, np.memmap):
        rows.flags.writeable = False
    return Dataset(rows, cfg)


def _softmax(c: np.ndarray, weights: bool = True, low: float = -np.inf):
    """(log-sum-exp of the logits c over axis 0, c's storage).  c is
    overwritten by exp(c - column max), normalised to the softmax over axis 0
    when `weights`: multiplied by one reciprocal of its mass per column, which
    is twice as fast as dividing the (|G|, m) array and rounds each weight
    twice, so a column sums to 1 within about (|G| + 1) rounding units.

    Float32 logits are first raised to at least the column max plus
    log(2 |G| tiny), tiny the smallest normal float32: every exp is then at
    least 2 |G| tiny and the mass at most |G|, so no weight is subnormal.
    Subnormal weights slow the M-step product W @ Y 40- to 65-fold, and the
    raise moves a weight by at most 2 |G| tiny (about 1e-36), far below the
    float32 rounding of the weights that carry the mass.  `low` is a lower
    bound on every logit; when no logit can fall that far below its column
    max (with 1 to spare for the logits' rounding), the raise is skipped."""
    top = c.max(axis=0)
    c -= top
    if c.dtype == np.float32:
        floor = math.log(2 * len(c) * TINY32)
        if low - float(top.max()) - 1 < floor:
            np.maximum(c, np.float32(floor), out=c)
    np.exp(c, out=c)
    mass = c.sum(axis=0)
    lse = np.log(mass)
    lse += top
    if weights:
        c *= np.reciprocal(mass, out=mass)
    return lse, c


def _posteriors(theta: np.ndarray, data, idx, norms: list):
    """(observations, log-likelihood, sum of squared log-sum-exps, posterior
    weights) for each block of the data, under the model of data.config, at
    theta, a length-L float64 array; idx is the model's `orbit_index`.
    Consumers drop each tuple before the next, as this generator does, so no
    two blocks' weights are alive at once.
    With c[G, i] = <y_i, G theta> / sigma^2, ||y_i - G theta||^2 / (2 sigma^2) =
    (||y_i||^2 + ||theta||^2) / (2 sigma^2) - c[G, i], so the weights, shape
    (|G|, m), are the softmax of c over G, and the block's log-likelihood is the
    sum of its log-sum-exps, less sum_i ||y_i||^2 / (2 sigma^2) and m per-row constants.
    c, the softmax and the weights are float32 (module docstring), so the
    likelihood is that of sigma^2 float32(theta / sigma^2), the signal the
    orbit holds: ||theta||^2 is taken of it too, and theta's rounding moves no
    term.  The sums are float64.  norms[k] is block k's (sum_i ||y_i||^2,
    max_i ||y_i||), both in float64; the largest row norm bounds every logit,
    |c[G, i]| <= ||y_i|| ||theta|| / sigma^2, for `_softmax`.  A block missing
    from the list is measured on its first read and appended, so a caller that
    keeps the list reads the rows' norms once however many passes it makes.
    A block is `tile_rows(4 |G|)` rows: its float32 logits are its largest
    temporary."""
    cfg = data.config
    sig2 = cfg.sigma**2
    scaled = (theta / sig2).astype(np.float32)
    orbit = scaled[idx]
    wide = scaled.astype(np.float64)
    ssq = float(wide @ wide)
    const = sig2 / 2 * ssq + math.log(len(idx)) + cfg.L / 2 * math.log(2 * math.pi * sig2)
    low = -math.sqrt(ssq)
    for k, block in enumerate(data.blocks(4 * len(idx))):
        if k == len(norms):
            rows = np.einsum("ij,ij->i", block, block, dtype=np.float64)
            norms.append((float(np.einsum("ij,ij->", block, block, dtype=np.float64)),
                          math.sqrt(rows.max())))
        ysq, ymax = norms[k]
        lse, w = _softmax(orbit @ block.T, low=ymax * low)
        ll = float(lse.sum(dtype=np.float64)) - ysq / (2 * sig2) - len(block) * const
        yield block, ll, float(np.einsum("i,i->", lse, lse, dtype=np.float64)), w
        del block, lse, w


def log_likelihood(theta: Signal, data) -> float:
    """Sum of observation log-densities over the dataset (0 when empty)."""
    total = 0.0
    idx = orbit_index(data.config.L, data.config.dihedral)
    for block, ll, _, w in _posteriors(theta.values, data, idx, []):
        total += ll
        del block, w
    return total


def _kl_tiles(bounds: np.ndarray, rows: int):
    """Tiles of consecutive sample rows, each a list of (block, lo, hi)
    pieces: whole jackknife blocks (bounds[b] to bounds[b + 1]) while they
    fit in `rows` rows, and a block longer than that in pieces of `rows`."""
    tile = []
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for a in range(lo, hi, rows):
            e = min(a + rows, hi)
            if tile and e - tile[0][1] > rows:
                yield tile
                tile = []
            tile.append((b, a, e))
    if tile:
        yield tile


def _kl_jackknife(gram: np.ndarray, use_cv: bool):
    """(estimate, jackknife SE) from the blocks' Gram matrices, gram[b] the
    sum of z z^T over block b's samples z = (1, x, score, Bartlett), or
    z = (1, x) without control variates."""
    n_blocks = len(gram)
    # row 0 sums all blocks, row 1 + b all blocks but b
    total = gram.sum(axis=0)
    g = np.concatenate([total[None], total - gram])
    n = g[:, 0, 0]
    mean = g[:, 0] / n[:, None]  # (1, x, score, Bartlett) means
    est = mx = mean[:, 1]
    if use_cv:
        cov = g / n[:, None, None] - mean[:, :, None] * mean[:, None, :]
        (a, b), (c, e) = cov[:, 2, 2:].T, cov[:, 3, 2:].T
        (x0, x1), (m0, m1), det = cov[:, 1, 2:].T, mean[:, 2:].T, a * e - b * c
        # beta . mc with beta = cov_cc^-1 cov_xc; both control variates have
        # exact mean zero under p_theta0, and a singular cov_cc keeps the plain mean
        bmc = ((e * x0 - b * x1) * m0 + (a * x1 - c * x0) * m1) / np.where(det != 0, det, 1.0)
        est = np.where(det != 0, mx - bmc, mx)
    loo = est[1:]
    se = float(np.sqrt((n_blocks - 1) / n_blocks * np.sum((loo - loo.mean()) ** 2)))
    return float(est[0]), se


def _kl_sample_rows(y, scaled0, scaled1, norm_gap, tds, dsq_sig2, use_cv: bool):
    """The rows (1, x, score, Bartlett) of `kl_monte_carlo`'s samples y, or
    (1, x) without control variates, from theta0's and theta's orbits scaled
    by 1/sigma^2 and the per-sigma constants."""
    # two products: one GEMM of the stacked orbits changes the last bits
    c0 = scaled0 @ y.T
    c1 = scaled1 @ y.T
    if use_cv:
        # <y, G d> / sigma^2 by linearity; formed before _softmax
        # overwrites c0 and c1
        q = c1 - c0
        q -= tds
    lse0, w = _softmax(c0, weights=use_cv)
    Z = np.empty((4 if use_cv else 2, len(y)))
    Z[0] = 1.0
    np.subtract(lse0, _softmax(c1, weights=False)[0], out=Z[1])
    Z[1] -= norm_gap
    if use_cv:
        wq = np.multiply(w, q, out=w)
        wq.sum(axis=0, out=Z[2])
        np.multiply(wq, q, out=q).sum(axis=0, out=Z[3])
        Z[3] -= dsq_sig2
    return Z


def kl_monte_carlo(theta0: Signal, theta: Signal, sigma, n_mc: int,
                   rng: np.random.Generator, dihedral: bool = False,
                   control_variate: bool = True):
    """Monte-Carlo KL(p_theta0 || p_theta) with a jackknife standard error,
    at one noise scale or at each of a grid of them.

    sigma is a positive finite number, which gives (kl, se), or a non-empty
    list or tuple of them (`check_sigma_grid`), which gives a list of one
    (kl, se) per sigma on one draw: every sigma scores the same z.  Row j of
    a grid equals, bit for bit, the pair of a call at sigma_j alone on an
    identically seeded rng, since each sigma keeps its own samples, products,
    softmaxes and Gram matrices and only the normals are shared (common
    random numbers, Glasserman 2004, section 4.2).  So the rows of a grid
    are correlated: their ratios carry less draw noise than independent
    calls would give.

    Averages log p_theta0(Y) - log p_theta(Y) over Y ~ p_theta0, with two
    regression control variates of exactly known zero mean along the path
    t -> log p_{theta0 + t d}(Y), d = theta - theta0: the score
    d/dt log p|_0 and the Bartlett combination d^2/dt^2 log p + (d/dt log p)^2.
    These cancel the O(||d||) and O(||d||^2) sampling fluctuations, which
    matters when KL is tiny against the per-sample spread.

    The samples carry no latent group element: Y = theta0 + sigma z, with z
    the first n_mc L standard normals of rng, row by row.  This is exact, not
    an approximation: p_phi is a uniform mixture over the group, so
    log p_phi(G y) = log p_phi(y) for every signal phi and every G in the
    group, and so are its t-derivatives along the path.  A draw G theta0 +
    sigma z equals G (theta0 + sigma G^-1 z), and G^-1 z is again standard
    normal, so the log-density ratio, the score and the Bartlett term have
    the same joint law under both draws.

    The SE comes from a delete-one-block jackknife, over min(100, n_mc)
    blocks, of the regression-adjusted mean.  Each block keeps one Gram matrix
    sum z z^T over its samples z = (1, x, score, Bartlett), or z = (1, x)
    without control variates: it holds the count and every sum the fit needs.
    Samples are drawn and scored in tiles of whole blocks, at most
    `tile_rows(8 (2 L + 3 |G| + 4))` rows, the bytes of a row's z, Y copy,
    c0, c1, q and Z (a longer block in pieces): one normal fill per tile,
    then per sigma one product per signal and one softmax each; each block's
    Gram matrix is the product of its slice of the tile's (1, x, score,
    Bartlett) rows.  A sample scores the same in any tile, and the stream
    does not depend on the tile size.  Every leave-one-out fit reads the total less one block's matrix,
    all at once, with each 2 x 2 regression solved in closed form.  The
    control variates are used only when every one of those regressions has
    at least 4 samples (n_mc >= 5); below that the plain mean is returned.
    """
    if theta0.L != theta.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (theta0.L, theta.L))
    integer("n_mc", n_mc, 2)  # a jackknife SE needs two samples
    scalar = isinstance(sigma, Real)
    grid = (sigma,) if scalar else check_sigma_grid(sigma)
    MraConfig(theta0.L, grid[0], dihedral)  # checks L, and a scalar sigma
    L = theta0.L
    d = Signal(theta.values - theta0.values)
    n_blocks = min(100, n_mc)
    bounds = np.linspace(0, n_mc, n_blocks + 1).astype(int)
    # the smallest regression, the jackknife fit without the largest block, needs
    # 4 samples: its intercept and two slopes would fit 3 exactly, leaving noise
    use_cv = control_variate and d.norm() > 0 and n_mc - np.diff(bounds).max() >= 4
    k = 4 if use_cv else 2
    gram = np.zeros((len(grid), n_blocks, k, k))
    idx = orbit_index(L, dihedral)
    dsq = d.norm() ** 2
    terms = []
    for s in grid:
        sig2 = s**2
        # log p_theta0(y) - log p_theta(y): ||y||^2, log|G| and the Gaussian
        # normalisation cancel, leaving the log-sum-exps and the signal norms
        terms.append((s, (theta0.values / sig2)[idx], (theta.values / sig2)[idx],
                      (theta0.norm() ** 2 - theta.norm() ** 2) / (2 * sig2),
                      float(np.dot(theta0.values, d.values)) / sig2, dsq / sig2))
    rows = tile_rows(8 * (2 * L + 3 * len(idx) + 4))
    Y = np.empty((min(rows, n_mc), L)) if len(terms) > 1 else None
    for tile in _kl_tiles(bounds, rows):
        lo = tile[0][1]
        m = tile[-1][2] - lo
        z = rng.standard_normal(size=(m, L))
        for j, (s, *sigma_terms) in enumerate(terms):
            # y = theta0 + s z; the last sigma overwrites z, the others a copy
            y = np.multiply(z, s, out=z if j == len(terms) - 1 else Y[:m])
            y += theta0.values
            Z = _kl_sample_rows(y, *sigma_terms, use_cv)
            for b, a, e in tile:
                zb = Z[:, a - lo:e - lo]
                gram[j, b] += zb @ zb.T
    pairs = [_kl_jackknife(g, use_cv) for g in gram]
    return pairs[0] if scalar else pairs


@dataclass(frozen=True)
class RestrictedClass:
    """Constraint set for the restricted MLE; projection is idempotent.

    kind: 'none', 'support-fixed', 'symmetric-support-fixed', or
    'magnitude-band' (fixed support plus magnitude clamp to [m, M]).
    support: standard indices, integers (not booleans), kept as a frozenset;
    m and M: positive finite numbers with m <= M, read by a magnitude band.
    """

    kind: str = "none"
    support: frozenset | None = None
    m: float | None = None
    M: float | None = None
    #: L -> the support's storage positions and their mirrors, built on first use
    _at: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    _KINDS = ("none", "support-fixed", "symmetric-support-fixed", "magnitude-band")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError("unknown class kind %r" % (self.kind,))
        if self.support is not None:
            if not isinstance(self.support, (list, tuple, set, frozenset)):
                raise ValueError("class support must be a list of integers, got %r"
                                 % (self.support,))
            object.__setattr__(self, "support", frozenset(
                integer("class support entry", i) for i in self.support))
        if self.kind != "none" and not self.support:
            raise ValueError("class kind %r needs a support" % (self.kind,))
        if self.kind == "symmetric-support-fixed":
            if set(-i for i in self.support) != set(self.support):
                raise ValueError("support must be symmetric about the origin")
        if self.kind == "magnitude-band" and number("m", self.m, True) > number("M", self.M, True):
            raise ValueError("need m <= M, got m=%r and M=%r" % (self.m, self.M))

    def _positions(self, L: int):
        """(storage positions of the sorted support, those of its negation)
        at length L, built once per L; a ValueError if two entries are one
        residue mod L, save L/2 and -L/2 in a symmetric support, which must
        name both."""
        if L not in self._at:
            # -L/2 is the point L/2 names too, and a symmetric support names both
            entries = [i for i in sorted(self.support)
                       if not (self.kind == "symmetric-support-fixed" and 2 * i == -L)]
            self._at[L] = (residues(L, entries, "class support"),
                           storage_index(L, [-i for i in entries]))
        return self._at[L]

    def project(self, theta: Signal) -> tuple[Signal, bool]:
        """Nearest class member (support zeroing, symmetrization, clamp).

        Returns (projected signal, clamp_active flag).  A support entry whose
        value is 0 sits below the band floor and is clamped to m.
        """
        if self.kind == "none":
            return theta, False
        pos, mirror = self._positions(theta.L)
        x = theta.values[pos]
        clamped = False
        if self.kind == "symmetric-support-fixed":
            x = (x + theta.values[mirror]) / 2
        elif self.kind == "magnitude-band":
            mag = np.abs(x)
            cl = np.minimum(np.maximum(mag, self.m), self.M)
            clamped = bool((cl != mag).any())
            x = np.where(x < 0, -cl, cl)
        v = np.zeros(theta.L)
        v[pos] = x
        return Signal(v), clamped


def _em_map(data, rclass):
    """EM's map for one fit of data to rclass, built once per fit: (F, final).

    F(theta) = (project(M(E(theta))), l(theta), r, clamped) on length-L
    float64 arrays: E the posterior weights of `_posteriors`, M their aligned
    average of the rows, project rclass.project (any object with
    project(Signal) -> (Signal, bool)), l the log-likelihood and r its
    rounding bound (see `em_restricted_mle`).  final(theta) = (l(theta), mean
    effective group size at theta), the diagnostics pass.  Both share the
    orbit index, its fold index and the list of the rows' norms; a pass
    holds one block's weights and a |G| x L accumulator."""
    cfg, n = data.config, data.n
    L = cfg.L
    idx = orbit_index(L, cfg.dihedral)
    fold, norms = idx.ravel(), []

    def F(theta):
        S = np.zeros(idx.shape)
        ll = lse_sq = 0.0
        for block, block_ll, block_lse_sq, w in _posteriors(theta, data, idx, norms):
            ll += block_ll
            lse_sq += block_lse_sq
            S += w @ block
            del block, w
        raw = np.bincount(fold, weights=S.ravel(), minlength=L)
        raw /= n
        new, clamped = rclass.project(Signal(raw))
        return new.values, ll, EPS32 * math.sqrt(L * lse_sq) + 1e-13 * abs(ll), clamped

    def final(theta):
        ll = group_size = 0.0
        for block, block_ll, _, w in _posteriors(theta, data, idx, norms):
            ll += block_ll
            # entropy -sum w log w, with 0 log 0 = 0 for weights that underflowed
            entropy = -np.sum(w * np.log(np.where(w > 0, w, 1.0)), axis=0)
            group_size += float(np.exp(entropy).sum(dtype=np.float64))
            del block, w
        return ll, group_size / n

    return F, final


def em_restricted_mle(data, rclass: RestrictedClass, init: Signal,
                      max_iters: int = 200, tol: float = 1e-8):
    """Restricted maximum-likelihood fit by EM with projection onto the class.

    The model (L, sigma, group) is data.config.  Each iterate is one pass of
    the map F of `_em_map`, built once per fit.  E-step: posterior weights
    over group elements, from one O(n L |G|) matrix product per block.
    M-step: posterior-aligned average of the observations, then projection;
    the pass at theta_hat gives the diagnostics instead.  Returns
    (theta_hat, diagnostics).

    Projected EM need not increase the likelihood, so `log_likelihood_decreases`
    lists each iteration k whose update lowered it by more than the rounding
    bound r[k-1] + r[k] of the two passes, with its drop.  The bound of
    trace[k] is r[k] = EPS32 sqrt(L sum_i lse_i^2) + 1e-13 |trace[k]|, with
    lse_i row i's float32 log-sum-exp at pass k: each logit is a float32 inner
    product of length L, which errs by about sqrt(L) rounding units of its
    size, and the n rows' errors add in quadrature (probabilistic rounding
    analysis, as in Higham and Mary 2019); the 1e-13 term covers the float64
    sum of n rows.  `mean_effective_group_size` is the mean of
    exp(entropy of the posterior weights) at theta_hat: |G| when the data say
    nothing about alignment, 1 when every observation is aligned with certainty.

    `varrho_steps[k]` is ||theta_k+1 - theta_k|| / sqrt(L), the unaligned
    step.  It bounds varrho(theta_k+1, theta_k) from above, so stopping once
    it falls below `tol` is conservative, and it costs no orbit alignment.
    A pass reads theta only through float32(theta / sigma^2): once an update
    moves theta by less than that rounding, the next step is exactly 0.0, the
    fixed point of the float32 map, and a fit run past convergence stops there.
    """
    if data.n == 0:
        raise ValueError("EM needs at least one observation; the dataset is empty")
    if init.L != data.L:
        raise LengthMismatchError("init length %d vs config L=%d" % (init.L, data.L))
    F, final = _em_map(data, rclass)
    root_L = math.sqrt(data.L)
    theta = rclass.project(init)[0].values
    steps, trace, slack = [], [], []
    clamp_any = converged = False
    while not converged and len(steps) < max_iters:
        new, ll, bound, clamped = F(theta)
        if not math.isfinite(ll):
            raise FloatingPointError("non-finite log-likelihood during EM")
        trace.append(ll)
        slack.append(bound)
        clamp_any = clamp_any or clamped
        d = new - theta
        steps.append(math.sqrt(float(d @ d)) / root_L)
        theta = new
        converged = bool(steps[-1] < tol)
    ll, group_size = final(theta)
    return Signal(theta), {
        "iterations": len(steps),
        "converged": converged,
        "final_log_likelihood": ll,
        "log_likelihood_trace": trace,
        "log_likelihood_decreases": [
            {"iteration": k, "drop": trace[k - 1] - trace[k]} for k in range(1, len(trace))
            if trace[k - 1] - trace[k] > slack[k - 1] + slack[k]],
        "mean_effective_group_size": group_size,
        "varrho_steps": steps,
        "clamp_active": clamp_any,
    }
