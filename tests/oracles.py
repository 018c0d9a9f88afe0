"""Dense and direct-sum oracles that the package's Fourier-domain code is
tested against, the fancy-index draw that its in-place draw is tested against
bit for bit, the divide-after-product posterior that its scaled-orbit kernel
is tested against, the whole-vector mask projection that the per-L class
projection is tested against bit for bit, the masked-loop KL jackknife that
its block-sum jackknife is tested against, the double-loop lag counts and set-based greedy
builder that `gensig` is tested against, the exhaustive group,
cosine-functional and collision-free-size references of the paper's claims,
and `traced_peak`, the memory meter of the tests that data is held once.
None of them calls np.fft except `dense`, which reads a moment tensor back in
full."""
import tracemalloc

import numpy as np

from mralab.mra import DEFAULT_CHUNK, MraConfig, _draw_block
from mralab.ring import (GroupElement, Signal, action_index, orbit_index, std_indices,
                         std_offset, storage_index)
from mralab.spectral import MomentTensor, _plane

#: branch-and-bound guard for exact maximum collision-free size
MAX_SIZE_GUARD_L = 40


def group_elements(L: int, dihedral: bool = False):
    """All enabled isometries: L rotations, doubled with reflections if dihedral."""
    elems = [GroupElement(g, False) for g in range(L)]
    if dihedral:
        elems += [GroupElement(g, True) for g in range(L)]
    return elems


def dense(t: MomentTensor) -> np.ndarray:
    """The dense L^m tensor of t, in standard order, from its plane."""
    full = np.zeros((t.L,) * t.order, dtype=complex)
    full[_plane(t.L, t.order)] = t.fourier
    return np.real(np.fft.ifftn(full))


def cosine_functional_all(xi_set, L: int) -> np.ndarray:
    """V(Xi, a) = 1_{0 in Xi} + 2 sum_{k in Xi \\ {0}} cos^2(2 pi a k / L) for
    every a in Z_L at once (natural frequency order), Xi read mod L."""
    ks = np.array(sorted(set(int(k) % L for k in xi_set)))
    has_zero = float(np.any(ks == 0))
    ks = ks[ks != 0]
    a = np.arange(L)
    if ks.size == 0:
        return np.full(L, has_zero)
    c = np.cos(2 * np.pi * np.outer(a, ks) / L)
    return has_zero + 2 * np.sum(c * c, axis=1)


def difference_multiset(support, L: int) -> np.ndarray:
    """Lag counts of the distinct points of a support mod L, by a pure-Python
    double loop over ordered pairs."""
    pts = sorted(set(int(i) % L for i in support))
    if not pts:
        raise ValueError("support must be nonempty")
    out = [0] * L
    for i in pts:
        for j in pts:
            if i != j:
                out[(i - j) % L] += 1
    return np.array(out)


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


def greedy_collision_free(L: int, s: int, rng: np.random.Generator):
    """Random greedy collision-free support that tracks its used lags in a set:
    one shuffle of range(L) per added point, first fresh candidate taken."""
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


def max_collision_free_size(L: int) -> int:
    """Exact maximum size of a collision-free subset of Z_L (branch and bound)."""
    if L > MAX_SIZE_GUARD_L:
        raise ValueError("exact search guarded at L <= %d; got %d" % (MAX_SIZE_GUARD_L, L))
    if L <= 1:
        return L
    best = [1]

    def extend(points, used):
        k = len(points)
        if k > best[0]:
            best[0] = k
        # the (k+1)-th point consumes 2k fresh differences; bound the number of
        # points still addable by the count of unused differences
        free = L - 1 - len(used)
        add = 0
        while (add + 1) * (2 * k + add) <= free:
            add += 1
        if k + add <= best[0]:
            return
        for x in range(points[-1] + 1, L):
            new = fresh_lags(x, points, used, L)
            if new is not None:
                points.append(x)
                extend(points, used | new)
                points.pop()

    extend([0], set())
    return best[0]


def dft(v: Signal) -> np.ndarray:
    """Unnormalized DFT at frequencies in standard order, by the DFT matrix."""
    idx = std_indices(v.L)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / v.L) @ v.values


def toeplitz(v: Signal) -> np.ndarray:
    """Circulant matrix M(v) with entries M[a, b] = v(a - b), standard order."""
    idx = std_indices(v.L)
    return v.values[(idx[:, None] - idx[None, :] + std_offset(v.L)) % v.L]


def convolve(u: Signal, v: Signal) -> Signal:
    """Cyclic convolution [u * v](k) = sum_g u(g) v(k - g), as M(v) u."""
    return Signal(toeplitz(v) @ u.values)


def shift_average(t: np.ndarray) -> np.ndarray:
    """(1/L) sum_g of the tensor t with every axis rolled by g."""
    L = t.shape[0]
    return sum(np.roll(t, g, axis=tuple(range(t.ndim))) for g in range(L)) / L


def second_moment_dense(theta: Signal) -> np.ndarray:
    """E_G[(G theta)^(x 2)] as an L x L array, summed shift by shift."""
    return shift_average(np.outer(theta.values, theta.values))


def third_moment_dense(theta: Signal) -> np.ndarray:
    """E_G[(G theta)^(x 3)] as an L^3 array, summed shift by shift."""
    return shift_average(np.einsum("i,j,k->ijk", theta.values, theta.values, theta.values))


def sample_moment_dense(y: np.ndarray, order: int, sigma: float) -> np.ndarray:
    """Shift-averaged debiased sample moment of the rows y:
    Y^T Y / n - sigma^2 I for order 2, and for order 3 the mean of y (x) y (x) y
    less sigma^2 (ybar_i d_jk + ybar_j d_ik + ybar_k d_ij), in float64 from
    rows of any float dtype."""
    y = np.asarray(y, dtype=np.float64)
    n, L = y.shape
    eye, ybar = np.eye(L), y.mean(axis=0)
    if order == 2:
        return shift_average(y.T @ y / n - sigma**2 * eye)
    t = np.einsum("ni,nj,nk->ijk", y, y, y) / n
    t -= sigma**2 * (np.einsum("i,jk->ijk", ybar, eye) + np.einsum("j,ik->ijk", ybar, eye)
                     + np.einsum("k,ij->ijk", ybar, eye))
    return shift_average(t)


def draw_block_reference(orbit: np.ndarray, cfg: MraConfig, m: int, rng: np.random.Generator):
    """(rows, shifts, flips): the rows as `mra._draw_block` returns them, from
    one expression, the fancy-indexed orbit rows plus sigma times a fresh
    `rng.normal` array, and the latent shifts and flips that picked them."""
    L = cfg.L
    shifts = rng.integers(L, size=m)
    flips = rng.integers(2, size=m).astype(bool) if cfg.dihedral else np.zeros(m, dtype=bool)
    return orbit[shifts + L * flips] + cfg.sigma * rng.normal(size=(m, L)), shifts, flips


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes that tracemalloc saw allocated during the
    call, numpy's arrays included; memory held before the call counts 0)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def posterior_divide_after(theta: Signal, y: np.ndarray, sigma: float, dihedral: bool = False):
    """(log-densities, posterior weights over G) of the rows y: the logits
    <y_i, G theta> come from one product with the unscaled orbit and are then
    divided by sigma^2; ||y_i||^2 is formed here.  All in float64, from rows
    of any float dtype."""
    y = np.asarray(y, dtype=np.float64)
    L = theta.L
    c = theta.values[orbit_index(L, dihedral)] @ y.T / sigma**2
    top = c.max(axis=0)
    w = np.exp(c - top)
    mass = w.sum(axis=0)
    w /= mass
    ysq = np.einsum("ij,ij->i", y, y)
    log_dens = (top + np.log(mass) - (ysq + theta.norm() ** 2) / (2 * sigma**2)
                - np.log(len(w)) - (L / 2) * np.log(2 * np.pi * sigma**2))
    return log_dens, w


def em_iteration(theta: Signal, y: np.ndarray, sigma: float, dihedral: bool = False):
    """(unprojected EM update, log-likelihood at theta) from the posteriors of
    `posterior_divide_after`: sum_i sum_G w_i(G) G^-1 y_i / n, folded onto Z_L,
    all in float64."""
    y = np.asarray(y, dtype=np.float64)
    idx = orbit_index(theta.L, dihedral)
    log_dens, w = posterior_divide_after(theta, y, sigma, dihedral)
    S = w @ y
    update = np.bincount(idx.ravel(), weights=S.ravel(), minlength=theta.L) / len(y)
    return update, float(np.sum(log_dens))


def kl_masked_jackknife(theta0: Signal, theta: Signal, sigma: float, n_mc: int,
                        rng: np.random.Generator, dihedral: bool = False,
                        control_variate: bool = True, picks: bool = False):
    """(KL, jackknife SE) as `mra.kl_monte_carlo` defines them, on the same
    draws: y = theta0 + sigma z, z drawn by one `rng.normal` call per block.
    Each sample's log-density ratio and control variates come from
    divide-after logits and the orbit of d = theta - theta0, and each of the
    n_blocks + 1 estimates sums its blocks through a mask and solves its
    regression with np.linalg.solve.  Below 4 samples in some delete-one-block
    fit, it is the plain mean.  With `picks`, each sample is drawn from a
    uniformly picked orbit row instead, by `mra._draw_block` (a different
    stream with the same law of every statistic)."""
    L = theta0.L
    cfg = MraConfig(L, sigma, dihedral)
    idx = orbit_index(L, dihedral)
    d = theta.values - theta0.values
    n_blocks = min(100, n_mc)
    bounds = np.linspace(0, n_mc, n_blocks + 1).astype(int)
    cnt = np.diff(bounds).astype(float)
    # control variates only when every delete-one-block fit has 4 samples
    use_cv = (control_variate and np.linalg.norm(d) > 0
              and min(cnt.sum() - cnt[b] for b in range(n_blocks)) >= 4)
    sx, sc = np.zeros(n_blocks), np.zeros((n_blocks, 2))
    scc, sxc = np.zeros((n_blocks, 2, 2)), np.zeros((n_blocks, 2))

    def lse(c):
        top = c.max(axis=0)
        return top + np.log(np.exp(c - top).sum(axis=0))

    orbit0 = theta0.values[idx]
    for b in range(n_blocks):
        m = bounds[b + 1] - bounds[b]
        for lo in range(0, m, DEFAULT_CHUNK):
            size = min(DEFAULT_CHUNK, m - lo)
            y = (_draw_block(orbit0, cfg, size, rng) if picks
                 else theta0.values + sigma * rng.normal(size=(size, L)))
            c0 = orbit0 @ y.T / sigma**2
            c1 = theta.values[idx] @ y.T / sigma**2
            x = (lse(c0) - lse(c1)
                 - (theta0.norm() ** 2 - theta.norm() ** 2) / (2 * sigma**2))
            w = np.exp(c0 - lse(c0))
            # d/dt and d^2/dt^2 of log p_{theta0 + t d}(y) at t = 0
            q = (d[idx] @ y.T - np.dot(theta0.values, d)) / sigma**2
            score = np.sum(w * q, axis=0)
            bart = np.sum(w * q**2, axis=0) - np.dot(d, d) / sigma**2
            C = np.stack([score, bart], axis=1)
            sx[b] += x.sum()
            sc[b] += C.sum(axis=0)
            scc[b] += C.T @ C
            sxc[b] += x @ C

    def estimate(mask):
        n = cnt[mask].sum()
        mx = sx[mask].sum() / n
        if not use_cv:
            return mx
        mc = sc[mask].sum(axis=0) / n
        cov_cc = scc[mask].sum(axis=0) / n - np.outer(mc, mc)
        cov_xc = sxc[mask].sum(axis=0) / n - mx * mc
        try:
            beta = np.linalg.solve(cov_cc, cov_xc)
        except np.linalg.LinAlgError:
            return mx
        return mx - float(beta @ mc)

    full = estimate(np.ones(n_blocks, dtype=bool))
    loo = np.empty(n_blocks)
    for b in range(n_blocks):
        mask = np.ones(n_blocks, dtype=bool)
        mask[b] = False
        loo[b] = estimate(mask)
    se = float(np.sqrt((n_blocks - 1) / n_blocks * np.sum((loo - loo.mean()) ** 2)))
    return float(full), se


def path_log_density(theta0: Signal, d: np.ndarray, y: np.ndarray, sigma: float,
                     dihedral: bool = False):
    """(log p, d/dt log p, d^2/dt^2 log p) of p_{theta0 + t d}(y) at t = 0,
    from one Gaussian term per group element, in float64: with a_G =
    <y - G theta0, G d> / sigma^2 and posterior weights w_G, the derivatives
    are sum_G w_G a_G and sum_G w_G a_G^2 - (sum_G w_G a_G)^2 - ||d||^2 / sigma^2."""
    L = theta0.L
    logs, a = [], []
    for g in group_elements(L, dihedral):
        gt, gd = g.apply(theta0).values, g.apply(Signal(d)).values
        logs.append(-np.dot(y - gt, y - gt) / (2 * sigma**2))
        a.append(np.dot(y - gt, gd) / sigma**2)
    logs, a = np.array(logs), np.array(a)
    top = logs.max()
    w = np.exp(logs - top)
    mass = w.sum()
    w /= mass
    score = float(w @ a)
    log_p = float(top + np.log(mass / len(w)) - L / 2 * np.log(2 * np.pi * sigma**2))
    return log_p, score, float(w @ a**2 - score**2 - np.dot(d, d) / sigma**2)


def project_reference(rclass, theta: Signal):
    """(projection, clamp flag) of theta onto rclass by whole-vector masks,
    rebuilt on every call: zero off the support, average with the reflection
    for a symmetric class, clamp the support's magnitudes into [m, M] for a
    band, with a zero entry on the support raised to m."""
    if rclass.kind == "none":
        return theta, False
    L = theta.L
    keep = np.zeros(L, dtype=bool)
    keep[storage_index(L, list(rclass.support))] = True
    v = np.where(keep, theta.values, 0.0)
    if rclass.kind == "symmetric-support-fixed":
        v = (v + v[action_index(L, 0, True)]) / 2
    clamped = False
    if rclass.kind == "magnitude-band":
        on = keep & (v != 0.0)
        mag = np.abs(v[on])
        cl = np.clip(mag, rclass.m, rclass.M)
        clamped = bool(np.any(cl != mag))
        v[on] = np.sign(v[on]) * cl
        dead = keep & (v == 0.0)
        if np.any(dead):
            clamped = True
            v[dead] = rclass.m
    return Signal(v), clamped


def em_fit(rclass, init: Signal, y: np.ndarray, sigma: float, dihedral: bool = False,
           max_iters: int = 200, tol: float = 1e-8):
    """(theta_hat, iterations) of projected EM in float64: `em_iteration`
    then rclass.project, from rclass.project(init), until the unaligned
    step ||theta_k+1 - theta_k|| / sqrt(L) falls below tol or max_iters run."""
    theta, _ = rclass.project(init)
    for k in range(1, max_iters + 1):
        update, _ = em_iteration(theta, y, sigma, dihedral)
        new, _ = rclass.project(Signal(update))
        step = np.linalg.norm(new.values - theta.values) / np.sqrt(theta.L)
        theta = new
        if step < tol:
            return theta, k
    return theta, max_iters
