"""Numerical probes for curvature lower bounds, the degenerate perturbation
construction, frequency-subsampling energy ratios, and moment sandwich scaling.

Random trials are drawn in support coordinates (trials x s values at s
positions) and scored in tiles, so a probe holds one tile's temporaries at a
time besides its draws and one number per trial.  Both curvature probes call
`curvature_terms`: a trial's spectrum is its s values times one s x
(L // 2 + 1) table of Fourier coefficients, with no dense row or FFT per
trial, and a row within half of theta0's rotation gap is aligned by the
identity, certified from theta0's autocorrelation; only the others are built
densely for the FFT orbit search.  The UUP check draws supports by Floyd's
algorithm and scores each trial's s (s - 1) / 2 position pairs from the
frequency set's lag table, in tiles of `mra.tile_rows(8 s)` trials.

Universal constants that theory leaves unspecified are fitted once on a
calibration run and frozen here; tests pin against these values.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gensig import DiluteClassSpec, is_collision_free
from .mra import check_sigma_grid, kl_monte_carlo, tile_rows
from .ring import Signal, align_spectra, integer, number, reflect, std_indices, storage_index
from .spectral import delta_m, second_moment_difference_expansion

#: constants fitted on calibration runs (seed 20240801) and frozen
FITTED_CONSTANTS = {
    "moderate_c4": 0.5,
    "spectral_floor_prefactor": 0.5,
}

#: relative slack of the curvature-floor checks
CURVATURE_SLACK = 0.05


class LambdaConstructionError(RuntimeError):
    """Resampling budget exhausted; carries the best frequency set found."""

    def __init__(self, message, best=None, stats=None):
        super().__init__(message)
        self.best = best
        self.stats = stats or {}


@dataclass
class FrequencySet:
    """A frequency subset of Z_L with measured energy-ratio statistics."""

    L: int
    frequencies: frozenset
    c1_hat: float | None = None
    c2_hat: float | None = None
    spectral_floor: float | None = None
    rounds: int = 0

    def __post_init__(self):
        self.frequencies = frozenset(int(x) for x in self.frequencies)
        idx = std_indices(self.L)
        for xi in self.frequencies:
            if not idx[0] <= xi <= idx[-1]:
                raise ValueError("frequency %d outside the standard index set" % xi)

    def natural_indices(self) -> np.ndarray:
        return np.array(sorted((xi + self.L) % self.L for xi in self.frequencies), dtype=int)

    def size(self) -> int:
        return len(self.frequencies)


def _check_dilute_member(theta: Signal, spec: DiluteClassSpec):
    sup = theta.support
    if len(sup) != spec.s:
        raise ValueError("signal sparsity %d != class s=%d" % (len(sup), spec.s))
    if not is_collision_free(sup, theta.L):
        raise ValueError("signal support is not collision-free")
    mags = np.abs(theta.values[theta.values != 0])
    if np.any(mags < spec.m - 1e-12) or np.any(mags > spec.M + 1e-12):
        raise ValueError("signal magnitudes leave the band [m, M]")


def support_restricted_min_ratio(theta0: Signal) -> float:
    """Smallest normalized curvature over unit directions on the support.

    Computes min_h ||linear part of Delta_2(theta0 + h, theta0)||_F with
    supp(h) in supp(theta0) and ||h|| = 1, exactly via the SVD of the linear
    map, normalized by sqrt(s/L), s = |supp(theta0)|.  The map sends h to a
    circulant, and ||circulant(J)||_F = sqrt(L) ||J||, so the SVD runs on the
    L x s matrix of generators.
    """
    L = theta0.L
    units = np.eye(L)[np.flatnonzero(theta0.values)]
    lin, _ = second_moment_difference_expansion(theta0, units)
    smin = np.sqrt(L) * np.linalg.svd(lin, compute_uv=False)[-1]
    return float(smin / np.sqrt(len(units) / L))


def _tiles(trials: int, width: int) -> list:
    """Consecutive slices of range(trials), each of at most
    `tile_rows(8 width)` rows: a trial is `width` float64 entries."""
    step = tile_rows(8 * width)
    return [slice(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


def _identity_radius(p0: np.ndarray, L: int) -> float:
    """A bound r* such that a row theta0 + h with 2 ||h|| < r* is aligned to
    theta0 by the identity, and `ring.align_spectra` finds that identity too.

    The rotation gap G = min_{g != 0} ||theta0 - R_g theta0|| comes from the
    autocorrelation a = irfft(p0): G^2 = 2 (a[0] - max_{g != 0} a[g]).  If
    2 ||h|| < G, every other rotation is farther from the row than theta0, by
    the triangle inequality, and <row, theta0> - <row, R_g theta0> >=
    G (G - 2 ||h||) / 2.  Each FFT correlation errs by less than tol =
    64 L eps ||theta0||^2 (rows of norm at most 2 ||theta0||), so G is taken
    less that rounding, as G_lo, and the radius keeps the correlation gap
    above 4 tol and the norm's own rounding: r* = G_lo - 5 tol / G_lo.  It is
    0 (nothing certified) for a theta0 with a period."""
    a = np.fft.irfft(p0, n=L)
    tol = 64 * L * np.finfo(float).eps * a[0]
    g_lo = math.sqrt(max(2 * (a[0] - a[1:].max()) - 4 * tol, 0.0))
    return g_lo - 5 * tol / g_lo if g_lo > 0 else 0.0


def _support_table(pos: np.ndarray, L: int) -> np.ndarray:
    """E[j, xi] = exp(-2 pi i xi pos[j] / L) over the rfft bins xi, as (re, im)
    pairs: vals @ E is the rfft of the rows sum_j vals[:, j] e_{pos[j]}."""
    return np.exp(-2j * np.pi / L * (np.outer(pos, np.arange(L // 2 + 1)) % L)).view(float)


def curvature_terms(theta0: Signal, pos: np.ndarray, vals: np.ndarray, bins=()):
    """(||Delta_2(theta0 + h, theta0)||_F, rho(theta0 + h, theta0), mass) for
    each row h = sum_j vals[:, j] e_{pos[j]} (pos in storage order), where
    mass sums |theta0-hat h-hat|^2 over the rfft bins `bins`.

    h-hat = vals E (see `_support_table`) comes in tiles of
    `tile_rows(8 (L // 2 + 1))` trials, and the Delta_2 spectrum is taken as
    2 Re(conj(theta0-hat) h-hat) + |h-hat|^2, which does not cancel as
    |theta0-hat + h-hat|^2 - |theta0-hat|^2 does.  A row with 2 ||h|| below
    theta0's identity radius (see `_identity_radius`) has rho =
    ||(theta0 + h) - theta0|| over pos, the orbit search's distance at the
    identity; only the other rows are built densely and go through
    `ring.align_spectra`.
    """
    L = theta0.L
    th = np.fft.rfft(theta0.values)
    # bins 0 and L/2 hold one frequency each, every other bin both +xi and -xi
    k = np.arange(th.size)
    weights = 2.0 - (k == 0) - (2 * k == L)
    table = _support_table(pos, L)
    radius = _identity_radius(np.abs(th) ** 2, L)
    bins, base = np.asarray(bins, dtype=np.intp), theta0.values[pos]
    d2, r, mass = np.empty((3, len(vals)))
    two_th = (2 * th).view(float)
    for t in _tiles(len(vals), th.size):
        # h-hat as (re, im) pairs; einsum, unlike a BLAS product, gives a row
        # the same bits in any tile
        hh = np.einsum("tj,jx->tx", vals[t], table)
        z = hh + two_th
        z *= hh  # a pair's sum is Re(conj(h-hat + 2 theta0-hat) h-hat)
        spec = z[:, ::2] + z[:, 1::2]
        d2[t] = np.sqrt(np.einsum("tx,tx,x->t", spec, spec, weights)) / L
        mass[t] = np.sum(np.abs(th[bins] * hh.view(complex)[:, bins]) ** 2, axis=1)
        thetas = base + vals[t]
        r[t] = np.linalg.norm(thetas - base, axis=1)
        far = 2 * r[t] >= radius
        if far.any():
            rows = np.tile(theta0.values, (far.sum(), 1))
            rows[:, pos] = thetas[far]
            r[t][far] = align_spectra(rows, theta0)[2]
    return d2, r, mass


def dilute_lower_bound_check(theta0: Signal, spec: DiluteClassSpec, trials: int,
                             rng: np.random.Generator, h_norm: float | None = None) -> dict:
    """Monte-Carlo check of the collision-free curvature floor.

    For random h supported on supp(theta0) with small fixed norm, the ratio
    ||Delta_2(theta0 + h, theta0)||_F / (sqrt(s/L) rho) should stay above
    sqrt(2 eps / (2 + eps)) up to the leading-order slack.  trials must be
    at least 1 and h_norm (default 1e-3 m) positive and finite: an empty draw
    has no minimum, and h = 0 has no ratio.
    """
    _check_dilute_member(theta0, spec)
    trials = integer("trials", trials, 1)
    h_norm = number("h_norm", 1e-3 * spec.m if h_norm is None else h_norm, True)
    L, s = theta0.L, spec.s
    h = rng.normal(size=(trials, s))
    d2, r, _ = curvature_terms(theta0, np.flatnonzero(theta0.values),
                               h * (h_norm / np.linalg.norm(h, axis=1, keepdims=True)))
    ratios = d2 / (np.sqrt(s / L) * r)
    bound = spec.curvature_constant()
    return {
        "trials": trials,
        "h_norm": h_norm,
        "bound": bound,
        "slack": CURVATURE_SLACK,
        "min_ratio": float(ratios.min()),
        "median_ratio": float(np.median(ratios)),
        "exact_direction_min": support_restricted_min_ratio(theta0),
        "passes": bool(ratios.min() >= bound * (1 - CURVATURE_SLACK)),
    }


def adversarial_direction(theta0: Signal, delta: float) -> Signal:
    """A real, mean-zero perturbation whose linear second-moment term vanishes.

    In Fourier space each usable frequency gets modulus delta at phase
    quadrature to theta0-hat, so Re(theta0-hat * conj(h-hat)) = 0 identically;
    hat h(0) = 0 always, and hat h(L/2) = 0 for even L to keep h real.
    Frequencies where |theta0-hat| <= 1e-12 max(|theta0-hat|, 1) are skipped.
    """
    L = theta0.L
    # storage order multiplies theta0-hat by a phase, which cancels in th / |th|
    th = np.fft.fft(theta0.values)
    scale = max(np.abs(th).max(), 1.0)
    hh = np.zeros(L, dtype=complex)
    for xi in range(1, (L - 1) // 2 + 1):
        if abs(th[xi]) <= 1e-12 * scale:
            warnings.warn("theta0-hat vanishes at frequency %d; skipped" % xi,
                          stacklevel=2)
            continue
        hh[xi] = 1j * delta * th[xi] / abs(th[xi])
        hh[L - xi] = np.conj(hh[xi])
    return Signal(np.real(np.fft.ifft(hh)))


def uup_sample(L: int, a: float, rng: np.random.Generator) -> FrequencySet:
    """Random frequency set, each frequency kept independently with prob a/L."""
    if not 0 < a <= L:
        raise ValueError("need 0 < a <= L")
    mask = rng.random(L) < a / L
    freqs = frozenset(int(x) for x in std_indices(L)[mask])
    return FrequencySet(L=L, frequencies=freqs)


def _sparse_picks(L: int, s: int, trials: int, rng: np.random.Generator):
    """(positions, values), both trials x s, of unit-norm rows with s-point
    random supports and Gaussian values; positions is the transposed view of
    an s x trials array.

    Each row's positions are a uniform s-subset of range(L), drawn by Floyd's
    algorithm for all rows at once: for k, j in enumerate(range(L - s, L)),
    draw t = rng.integers(j + 1, size=trials) and pick j where t is already
    among a row's k picks, t elsewhere.  The values are drawn after all
    positions.  Positions are not in sorted order, but a row's score does not
    depend on the order of its (position, value) pairs.
    """
    # drawn pick-major: the membership test then reduces over k contiguous
    # rows, several times faster than over k columns of a trials x s array
    cols = np.empty((s, trials), dtype=np.intp)
    for k, j in enumerate(range(L - s, L)):
        t = rng.integers(j + 1, size=trials)
        cols[k] = np.where((cols[:k] == t).any(axis=0), j, t)
    vals = rng.normal(size=(trials, s))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    return cols.T, vals


def uup_check(lam: FrequencySet, s: int, trials: int, rng: np.random.Generator):
    """(c1_hat, c2_hat): extreme ratios of mean energy on the set vs overall.

    Ratio = [(1/|set|) sum_set |h-hat|^2] / [(1/L) sum_all |h-hat|^2] over
    random unit-norm s-sparse vectors h; by Parseval the denominator is
    ||h||^2 = 1.  With values v_j at positions p_j, the numerator is
    kappa[0] ||v||^2 + 2 sum_{j<k} v_j v_k kappa[|p_j - p_k|], where the lag
    table kappa[d] = (1/|set|) sum_{n in set} cos(2 pi n d / L) comes from one
    FFT of the set's indicator: s (s - 1) / 2 lags per trial, taken one
    offset k - j at a time in tiles of `tile_rows(8 s)` trials.
    The sizes are checked first; an empty set has no ratio, and gives (None, None).
    """
    L = lam.L
    if not 1 <= s <= L or trials < 1:
        raise ValueError("need 1 <= s <= L and trials >= 1; got s=%d, L=%d, trials=%d"
                         % (s, L, trials))
    if lam.size() == 0:
        return None, None
    picks, vals = _sparse_picks(L, s, trials, rng)
    nat = lam.natural_indices()
    kappa = np.fft.fft(np.bincount(nat, minlength=L)).real / nat.size
    # pick-major rows: the pairs (i, i + d) at each offset d are two contiguous slices
    pt, vt = picks.T, np.ascontiguousarray(vals.T)
    ratios = np.empty(trials)
    for t in _tiles(trials, s):
        p, v = pt[:, t], vt[:, t]
        pairs = np.zeros(p.shape[1])
        for d in range(1, s):
            w = v[d:] * v[:-d]
            w *= kappa[np.abs(p[d:] - p[:-d])]
            for row in w:  # row by row, so that a trial sums the same in any tile
                pairs += row
        ratios[t] = kappa[0] * np.sum(vals[t] ** 2, axis=1) + 2 * pairs
    return float(ratios.min()), float(ratios.max())


def spectral_floor(s: int, tau: float) -> float:
    """Fitted magnitude floor c * min(s^(tau-4), 1) for sparse symmetric classes."""
    return float(FITTED_CONSTANTS["spectral_floor_prefactor"] * min(s ** (tau - 4.0), 1.0))


def lambda_construct(theta: Signal, s: int, a: float, max_tries: int,
                     rng: np.random.Generator, tau: float = 1.0) -> FrequencySet:
    """Resample frequency sets until one passes both the energy-ratio check
    (2000 trials, c1_hat >= 0.05, c2_hat <= 20) and the spectral floor
    min |theta-hat| >= spectral_floor(s, tau) on the set."""
    c1_min, c2_max = 0.05, 20.0
    floor = spectral_floor(s, tau)
    mod = np.abs(np.fft.fft(theta.natural()))
    best, best_key = None, (-1.0, -1.0)
    for t in range(1, max_tries + 1):
        lam = uup_sample(theta.L, a, rng)
        if lam.size() == 0:
            continue
        m_set = float(mod[lam.natural_indices()].min())
        c1, c2 = uup_check(lam, s, 2000, rng)
        lam.c1_hat, lam.c2_hat = c1, c2
        lam.spectral_floor = m_set
        lam.rounds = t
        ok = m_set >= floor and c1 >= c1_min and c2 <= c2_max
        key = (min(m_set / floor, 1.0), min(c1 / c1_min, 1.0))
        if key > best_key:
            best, best_key = lam, key
        if ok:
            return lam
    raise LambdaConstructionError(
        "no admissible frequency set in %d tries" % max_tries,
        best=best,
        stats={"tries": max_tries, "floor": floor, "c1_min": c1_min, "c2_max": c2_max},
    )


def moderate_curvature_check(theta0: Signal, lam: FrequencySet, trials: int,
                             h_norm: float, rng: np.random.Generator) -> dict:
    """Curvature floor for symmetric sparse signals via a frequency set.

    Reports min over symmetric in-support perturbations of
    ||Delta_2||_F sqrt(L) / (m_set rho) against the fitted constant c4, plus
    the intermediate spectral-mass ratio used in the chain of inequalities.
    trials and h_norm are checked as in `dilute_lower_bound_check`.
    """
    if theta0 != reflect(theta0) or not theta0.support:
        raise ValueError("theta0 must be symmetric and nonzero")
    trials, h_norm = integer("trials", trials, 1), number("h_norm", h_norm, True)
    c4 = FITTED_CONSTANTS["moderate_c4"]
    L = theta0.L
    m_set = float(np.abs(np.fft.fft(theta0.natural()))[lam.natural_indices()].min())
    # symmetric directions on the support: one Gaussian per index i >= 0, copied to -i
    sup = np.array(sorted(theta0.support))
    half = np.unique(np.abs(sup))
    coef = rng.normal(size=(trials, len(half)))
    vals = coef[:, np.searchsorted(half, np.abs(sup))]
    vals *= h_norm / np.linalg.norm(vals, axis=1, keepdims=True)
    nat = lam.natural_indices()
    d2, r, mass = curvature_terms(theta0, storage_index(L, sup), vals, np.minimum(nat, L - nat))
    ratios = d2 * np.sqrt(L) / (m_set * r)
    chain = mass / L / (m_set**2 * np.sum(vals**2, axis=1))
    return {
        "trials": trials,
        "h_norm": h_norm,
        "spectral_floor": m_set,
        "c4": float(c4),
        "min_ratio": float(ratios.min()),
        "median_ratio": float(np.median(ratios)),
        "chain_min": float(chain.min()),
        "c3_sq_hat": (None if lam.c1_hat is None or lam.c2_hat is None
                      else float(lam.c1_hat / lam.c2_hat)),
        "passes": bool(ratios.min() >= c4 * (1 - CURVATURE_SLACK)),
    }


def moment_sandwich_probe(theta: Signal, phi: Signal, sigma_grid, n_mc: int,
                          rng: np.random.Generator) -> dict:
    """KL against the truncated moment-difference series over a sigma grid.

    Both signals must be centered, sigma_grid a non-empty list of positive
    finite noise scales, and some ||Delta_m|| above rounding, 1e-12 of
    max(||theta||, ||phi||)^m; the lower series sums
    ||Delta_m||^2 / ((sqrt(3) sigma)^(2m) m!) for m = 1..3.  A row whose
    series underflows to 0 has no ratio, and a grid with none does not pass.
    Every row's KL is scored on one draw z (one `kl_monte_carlo` call over
    the grid), so the rows share their normals and their draw noise.
    """
    sigma_grid = check_sigma_grid(sigma_grid)
    scale = max(theta.norm(), phi.norm())
    tol = 1e-10 * max(scale, 1.0)
    if abs(theta.mean()) > tol or abs(phi.mean()) > tol:
        raise ValueError("both signals must be centered")
    norms = [delta_m(theta, phi, m).frobenius() for m in (1, 2, 3)]
    if all(x <= 1e-12 * scale**m for m, x in enumerate(norms, 1)):
        raise ValueError("Delta_1, Delta_2 and Delta_3 all vanish: theta and phi share their "
                         "moments of orders 1 to 3, so the lower series is 0 at every sigma")
    rows = []
    for sigma, (kl, se) in zip(sigma_grid, kl_monte_carlo(theta, phi, sigma_grid, n_mc, rng)):
        series = sum(norms[m - 1] ** 2 / ((3 * sigma**2) ** m * math.factorial(m))
                     for m in (1, 2, 3))
        rows.append({
            "sigma": sigma,
            "kl": kl,
            "kl_se": se,
            "delta_norms": [float(x) for x in norms],
            "lower_series": float(series),
            "ratio": float(kl / series) if series > 0 else None,
        })
    rated = [r for r in rows if r["ratio"] is not None]
    passes = bool(rated) and all(r["ratio"] >= 1 - 3 * r["kl_se"] / r["lower_series"]
                                 for r in rated)
    return {"rows": rows, "fitted_C_lower": min((r["ratio"] for r in rated), default=None),
            "passes": passes}
