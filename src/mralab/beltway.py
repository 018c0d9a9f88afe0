"""Recovery of point sets on the discrete circle from pairwise difference
multisets, and of sparse signals from their power spectra.  A multiset is a
`DifferenceProfile`, the validated lag-count array of `gensig.lag_counts`.

The support solver is the turnpike/beltway backtracking of Skiena, Smith &
Lemke (1990), "Reconstructing sets from interpoint distances".  It anchors
the pair (0, d_min) at the smallest lag, places further points in increasing
order from a candidate list (the residues whose lags to every placed point
are still unused), and takes a point's lags from the remaining multiset one
by one, giving them back at the first lag that is used up.  Mirror rule: the
reflection y -> d_min - y (mod L) maps a solution anchored at (0, d_min) to
another such solution and swaps its gap above d_min, p_3 - d_min, with its
top gap, L - p_s; the search keeps only branches with p_3 - d_min <= L - p_s,
so it walks one of each mirror pair (both when the gaps tie), and
`canonical_orbit` merges what is left.  Exponential worst case is accepted;
desk-scale instances finish quickly.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .gensig import lag_counts
from .ring import REQUIRED, Signal, integer, read_keys, residues, std_offset

#: node budget of the backtracking solver, read at each call
DEFAULT_NODE_BUDGET = 2_000_000


class SearchBudgetError(RuntimeError):
    """The backtracking search exceeded its node budget."""


class ProfileInconsistencyError(ValueError):
    """A thresholded autocorrelation is not a valid difference profile."""


@dataclass
class DifferenceProfile:
    """Multiset of nonzero cyclic differences as lag counts: counts[d] is the
    multiplicity of lag d, with counts[0] == 0 and counts[d] == counts[-d]."""

    L: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if self.L < 1 or counts.shape != (self.L,) or counts.dtype.kind not in "iu":
            raise ValueError("counts must be %d integers, one per lag" % self.L)
        # checked as a list: numpy reductions here raised pr-recover's peak RSS
        c = counts.tolist()
        if c[0]:
            raise ValueError("difference profiles exclude 0")
        if min(c) < 0:
            raise ValueError("negative multiplicity")
        if c != [c[-d] for d in range(self.L)]:
            raise ValueError("profile must satisfy mult(d) = mult(-d)")
        self.counts = counts

    @classmethod
    def from_support(cls, support, L: int) -> "DifferenceProfile":
        return cls(L, lag_counts(support, L))

    def to_json_dict(self) -> dict:
        lags = np.flatnonzero(self.counts)
        return {"L": self.L, "differences": lags.tolist(),
                "multiplicities": self.counts[lags].tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DifferenceProfile":
        """Read `to_json_dict`'s form, every key required: an integer L >= 1
        and two integer lists of equal length, each residue mod L given once
        among the differences."""
        d = read_keys("profile", d, dict.fromkeys(("L", "differences", "multiplicities"),
                                                  REQUIRED), {"L": (integer, 1)})
        L = d["L"]
        pos, mults = residues(L, d["differences"], "differences"), d["multiplicities"]
        if not isinstance(mults, list) or len(mults) != len(pos):
            raise ValueError("need a list of %d multiplicities, one per difference, got %r"
                             % (len(pos), mults))
        counts = np.zeros(L, dtype=np.int64)
        # counts is indexed by lag mod L, the storage position less the offset
        counts[(pos - std_offset(L)) % L] = [integer("multiplicities entry", m) for m in mults]
        return cls(L, counts)


def canonical_orbit(support, L: int) -> tuple:
    """Smallest rotation/reflection representative of a support, as a sorted tuple."""
    pts = sorted(set(int(i) % L for i in support))
    best = None
    for base in (pts, [(-p) % L for p in pts]):
        for anchor in base:
            cand = tuple(sorted((p - anchor) % L for p in base))
            if best is None or cand < best:
                best = cand
    return best


def solve_beltway(profile: DifferenceProfile, s: int):
    """All supports of size s realizing the given cyclic difference multiset.

    Returns canonical orbit representatives (sorted residue tuples); an empty
    list means the profile is infeasible.  Each call of the search counts
    one node against DEFAULT_NODE_BUDGET; exceeding it raises SearchBudgetError.
    """
    L = profile.L
    if s < 1:
        raise ValueError("target size must be >= 1")
    total = int(profile.counts.sum())
    if total != s * (s - 1):
        raise ValueError("profile has %d differences, need s(s-1) = %d" % (total, s * (s - 1)))
    if s == 1:
        return [(0,)]

    # Every solution has a pair at the smallest lag d_min; rotate it to
    # (0, d_min).  No point lies strictly between them, since its lag to 0
    # would be smaller than d_min, so further points are placed in increasing
    # order above d_min.
    d_min = int(np.flatnonzero(profile.counts)[0])
    # remaining[d]: multiplicity of lag d not yet used by a placed pair
    remaining = profile.counts.tolist()
    remaining[d_min] -= 1
    remaining[L - d_min] -= 1
    if remaining[d_min] < 0:
        return []
    found = set()
    nodes = [0]

    def take(points, x):
        """Use the lags x - y and L - (x - y) of x to every placed y < x.

        Returns False, with nothing taken, if some lag is used up.  remaining
        stays symmetric, remaining[d] == remaining[L - d], so checking d
        covers both, and d = L/2 twice."""
        for k, y in enumerate(points):
            d = x - y
            remaining[d] -= 1
            remaining[L - d] -= 1
            if remaining[d] < 0:
                give_back(points[:k + 1], x)
                return False
        return True

    def give_back(points, x):
        for y in points:
            remaining[x - y] += 1
            remaining[L - x + y] += 1

    def backtrack(points, cands):
        """cands: sorted residues above points[-1] whose lags to every placed
        point are still unused (and, from the fourth point on, within the
        mirror bound)."""
        nodes[0] += 1
        if nodes[0] > DEFAULT_NODE_BUDGET:
            raise SearchBudgetError("node budget %d exceeded" % DEFAULT_NODE_BUDGET)
        if len(points) == s:
            if not any(remaining):
                found.add(canonical_orbit(points, L))
            return
        need = s - len(points)
        for i in range(len(cands) - need + 1):
            x = cands[i]
            end = len(cands)
            if len(points) == 2:
                # mirror rule: y -> d_min - y (mod L) fixes the anchor pair
                # and swaps the gap x - d_min with the top gap L - p_s, so
                # keep x - d_min <= L - p_s: x and every later point stay at
                # or below L - (x - d_min)
                top = L - (x - d_min)
                if x > top:
                    break
                end = bisect_right(cands, top)
            if not take(points, x):
                continue
            points.append(x)
            backtrack(points, [c for c in cands[i + 1:end] if remaining[c - x]])
            points.pop()
            give_back(points, x)

    backtrack([0, d_min], [c for c in range(d_min + 1, L)
                           if remaining[c] and remaining[c - d_min]])
    return sorted(found)


def _values_from_products(support, A_nat, L: int):
    """Magnitudes and signs on a collision-free support from pairwise products.

    theta(i) theta(j) = A((j - i) mod L) since each lag is hit by one pair.
    No product is 0: every lag of the support passed the threshold |A| > m^2 / 2.
    """
    s = len(support)
    pts = np.asarray(support)
    if s == 1:
        return np.array([np.sqrt(max(A_nat[0], 0.0))])
    prod = A_nat[(pts[None, :] - pts[:, None]) % L]
    mags = np.empty(s)
    if s == 2:
        # x^2 y^2 = A(d)^2 and x^2 + y^2 = A(0): solve the quadratic in x^2
        p, a0 = prod[0, 1], A_nat[0]
        disc = max(a0 * a0 - 4 * p * p, 0.0)
        u = (a0 + np.sqrt(disc)) / 2
        v = max(a0 - u, 0.0)
        mags[0], mags[1] = np.sqrt(max(u, 0.0)), np.sqrt(v)
    else:
        for a in range(s):
            b, c = (a + 1) % s, (a + 2) % s
            mags[a] = np.sqrt(abs(prod[a, b] * prod[a, c] / prod[b, c]))
    signs = np.where(prod[0] >= 0, 1.0, -1.0)
    signs[0] = 1.0
    return mags * signs


def _refine_values(support, vals, P_nat, L: int):
    """Least-squares polish of support values against the target power spectrum.

    Levenberg-Marquardt on r(v) = |F x|^2 - P, where x holds v on the support
    and 0 off it, with the exact Jacobian J = 2 Re(conj(F x) F[:, support])
    and Marquardt's scaling by diag(J^T J).  It stops when a step, or the
    relative decrease of ||r||^2, falls to 1e-15, when no damping lowers
    ||r||^2, or after 100 steps.
    """
    F = np.exp(-2j * np.pi * (np.outer(np.arange(L), support) % L) / L)

    def resid(v):
        f = F @ v
        r = f.real**2 + f.imag**2 - P_nat
        return f, r, r @ r

    v = np.asarray(vals, dtype=float)
    f, r, cost = resid(v)
    lam = 1e-3
    for _ in range(100):
        J = 2 * (f.real[:, None] * F.real + f.imag[:, None] * F.imag)
        A, g = J.T @ J, J.T @ r
        d = np.diag(A).copy()
        d[d == 0] = 1.0
        while True:
            step = np.linalg.solve(A + lam * np.diag(d), -g)
            trial = v + step
            f_new, r_new, cost_new = resid(trial)
            if cost_new < cost:
                break
            lam *= 10
            if lam > 1e16:
                return v
        lam = max(lam / 10, 1e-12)
        decrease = cost - cost_new
        v, f, r, cost = trial, f_new, r_new, cost_new
        if (np.linalg.norm(step) <= 1e-15 * (np.linalg.norm(v) + 1e-15)
                or decrease <= 1e-15 * (cost + decrease)):
            break
    return v


def recover_from_power_spectrum(P, s: int, m: float, tol: float = 1e-5):
    """Candidate signals with s collision-free support points, each of
    magnitude at least m, whose power spectrum matches P.

    P is a nonnegative vector in standard frequency order, of length L = P.size.
    Pipeline: autocorrelation by inverse DFT, support differences by
    thresholding at m^2/2, backtracking support solve, values from pairwise
    products, least-squares refinement.  Candidates are returned with
    canonical sign (first nonzero value positive) and only if their relative
    spectral residual is <= tol.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 1:
        raise ValueError("P must be a nonnegative vector")
    bad = np.flatnonzero(~np.isfinite(P))
    if bad.size:
        raise ValueError("P[%d] = %r is not finite" % (bad[0], float(P[bad[0]])))
    if np.any(P < -1e-9 * max(1.0, P.max(initial=0.0))):
        raise ValueError("P must be a nonnegative vector")
    L = P.size
    P_nat = Signal(P).natural()
    A_nat = np.real(np.fft.ifft(P_nat))
    counts = (np.abs(A_nat) > m**2 / 2).astype(np.int64)
    counts[0] = 0
    if counts.sum() != s * (s - 1) and s > 1:
        raise ProfileInconsistencyError(
            "thresholding found %d lags, expected s(s-1) = %d" % (counts.sum(), s * (s - 1))
        )
    supports = solve_beltway(DifferenceProfile(L, counts), s)
    p_norm = float(np.linalg.norm(P_nat))
    out = []
    for sup in supports:
        vals = _refine_values(sup, _values_from_products(sup, A_nat, L), P_nat, L)
        x = np.zeros(L)
        x[np.array(sup)] = vals
        res = float(np.linalg.norm(np.abs(np.fft.fft(x)) ** 2 - P_nat)) / max(p_norm, 1e-300)
        if res <= tol:
            nz = vals[vals != 0]
            if nz.size and nz[0] < 0:
                x = -x
            out.append(Signal.from_natural(x))
    return out

