"""Group-averaged moment tensors in the Fourier domain, from signals and from data.

Convention: np.fft's unnormalized forward transform
hat(v)(xi) = sum_k v(k) e^{-2 pi i xi k / L}, so ||v||^2 = ||hat(v)||^2 / L.

E_G[(G theta)^(x m)] is shift invariant, so its DFT vanishes off the plane
xi_1 + ... + xi_m = 0 (mod L) and equals hat(theta)(xi_1) ... hat(theta)(xi_m)
on it, in any cyclic indexing: L mean(theta) at xi = 0 for m = 1, the power
spectrum for m = 2, the bispectrum hat(theta)(a) hat(theta)(b)
conj(hat(theta)(a + b)) for m = 3.  Parseval gives ||Delta_m||_F^2 = L^-m sum
over the plane of |difference|^2, in O(L^(m-1)) work.  `delta_m` holds moment
differences in this form, and `empirical_moments` debiased sample moments.
`second_moment_difference_expansion` holds circulants by their generators.
"""
from __future__ import annotations

import numpy as np

from .ring import LengthMismatchError, Signal


class MomentTensor:
    """Group-averaged moment tensor E_G[(G theta)^(x m)] or a difference thereof.

    It holds `fourier`, the DFT on the plane (module docstring) over
    (xi_1, ..., xi_(m-1)), for orders 1 to 3; order 1 is its one value at
    xi = 0.
    """

    def __init__(self, order: int, L: int, fourier: np.ndarray):
        self.order = order
        self.L = L
        self.fourier = np.asarray(fourier)

    def frobenius(self) -> float:
        # Parseval for the m-dimensional transform; the plane holds all of it
        return float(np.linalg.norm(self.fourier) / self.L ** (self.order / 2))


def _plane(L: int, m: int) -> tuple:
    """Index arrays of the plane xi_1 + ... + xi_m = 0 (mod L) over its first m - 1 axes."""
    free = tuple(np.indices((L,) * (m - 1)))
    return free + ((-sum(free)) % L,)


def _moment_fourier(theta: Signal, m: int) -> np.ndarray:
    """hat(theta)(xi_1) ... hat(theta)(xi_m) on the plane, from standard-order values."""
    f = np.fft.fft(theta.values)
    return np.prod([f[i] for i in _plane(theta.L, m)], axis=0)


def power_spectrum(theta: Signal) -> np.ndarray:
    """|hat(theta)|^2 at frequencies in standard order; nonnegative."""
    return Signal.from_natural(np.abs(np.fft.fft(theta.natural())) ** 2).values


def delta_m(theta: Signal, phi: Signal, m: int) -> MomentTensor:
    """Difference of order-m group-averaged moment tensors of theta and phi."""
    if theta.L != phi.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (theta.L, phi.L))
    if m in (1, 2, 3):
        return MomentTensor(m, theta.L, _moment_fourier(theta, m) - _moment_fourier(phi, m))
    raise ValueError("moment order must be 1, 2 or 3; got %r" % (m,))


def second_moment_difference_expansion(theta: Signal, h: np.ndarray):
    """Split Delta_2(theta + h, theta) into its linear and quadratic parts in h.

    Delta_2 = (1/L)[M(theta * reflect(h)) + M(reflect(theta) * h)] (linear)
            + (1/L) M(h * reflect(h))                              (quadratic).
    Each part is the circulant with entries J((i - j) mod L), fixed by its
    generator J, and ||circulant(J)||_F = sqrt(L) ||J||.  h holds standard-order
    values, one row (L,) or a stack (k, L); the generators come back in natural
    lag order with h's shape, and no dense L x L matrix is formed.
    """
    arr = np.asarray(h)  # a Signal becomes a 0-d object array and is rejected
    if arr.ndim not in (1, 2) or arr.shape[-1] != theta.L:
        raise LengthMismatchError("h must be an array of shape (%d,) or (k, %d), not a %s of "
                                  "shape %s" % (theta.L, theta.L, type(h).__name__, arr.shape))
    th, hh = np.fft.fft(theta.values), np.fft.fft(arr)
    lin = np.real(np.fft.ifft(2 * np.real(th * np.conj(hh)))) / theta.L
    quad = np.real(np.fft.ifft(np.abs(hh) ** 2)) / theta.L
    return lin, quad


def _bispectrum_sum(f: np.ndarray) -> np.ndarray:
    """sum_i f_i(a) f_i(b) conj(f_i(a + b)) over the rows of the DFT f of real rows.

    Rows a <= L/2 are summed directly; real data gives the rest by
    B(-a, b) = conj(B(a, -b)).  f is one cache-sized tile of
    `empirical_moments`, which sums the tiles.  Each row a is one einsum,
    not a BLAS product, so its bits do not follow the BLAS thread count.
    """
    L = f.shape[1]
    acc = np.empty((L, L), dtype=complex)
    g = np.conj(np.concatenate([f, f], axis=1))  # g[:, a + b] = conj(f(a + b))
    for a in range(L // 2 + 1):
        acc[a] = np.einsum("i,ij,ij->j", f[:, a], f, g[:, a:a + L])
    a = np.arange(1, (L + 1) // 2)
    acc[L - a] = np.conj(acc[a][:, -np.arange(L) % L])
    return acc


def empirical_moments(data, order: int) -> MomentTensor:
    """Debiased sample moment of order 1, 2 or 3 of a Dataset.

    One pass over data.blocks(72 L), with one FFT per block for orders 2
    and 3, so memory does not grow with n: a row's float64 upcast, its FFT
    and the bispectrum's g take 56 L of those bytes.  Each float32 block
    is upcast to float64 first, so its sum and FFT run in double precision.
    With sigma from data.config and y-hat the rows' DFT: order 1 is mean y-hat(0);
    order 2 is mean |y-hat|^2 - L sigma^2 on the plane; order 3 is the mean of
    y-hat(a) y-hat(b) conj(y-hat(a + b)) less sigma^2 L mean(y-hat(0)) on
    each of the lines a = 0, b = 0 and a + b = 0, where the noise puts its
    bias.  All are held as `delta_m` holds them.
    Under the dihedral group a reflection conjugates the bispectrum, so the
    order-3 estimate tends to its reflection average Re B.
    """
    if order not in (1, 2, 3):
        raise ValueError("moment order must be 1, 2 or 3; got %r" % (order,))
    L, sigma, n = data.config.L, data.config.sigma, data.n
    if n == 0:
        raise ValueError("empirical moments need at least one observation")
    total, acc = 0.0, 0.0  # total = sum of y-hat(0) = sum of all entries
    for block in data.blocks(72 * L):
        block = block.astype(np.float64)
        total += float(block.sum())
        if order > 1:
            f = np.fft.fft(block, axis=1)
            acc = acc + (np.sum(np.abs(f) ** 2, axis=0) if order == 2 else _bispectrum_sum(f))
            del f
    if order == 1:
        return MomentTensor(1, L, total / n)
    if order == 2:
        return MomentTensor(2, L, acc / n - L * sigma**2)
    fourier, bias, a = acc / n, sigma**2 * L * total / n, np.arange(L)
    fourier[0, :] -= bias
    fourier[:, 0] -= bias
    fourier[a, -a % L] -= bias
    return MomentTensor(3, L, fourier)
