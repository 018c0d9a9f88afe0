"""DFT on Z_L, convolution, circulant lifting, and group-averaged moment tensors.

Convention: unnormalized forward transform hat(v)(xi) = sum_k v(k) e^{-2 pi i xi k / L},
inverse carries the 1/L factor.  Under this convention Parseval reads
||v||^2 = ||hat(v)||^2 / L.

Moment tensors live in the Fourier domain.  E_G[(G theta)^(x m)] is shift
invariant, so its DFT vanishes off the plane xi_1 + ... + xi_m = 0 (mod L) and
equals hat(theta)(xi_1) ... hat(theta)(xi_m) on it, in any cyclic indexing:
the power spectrum for m = 2, the bispectrum hat(theta)(a) hat(theta)(b)
conj(hat(theta)(a + b)) for m = 3.  Parseval gives ||Delta_m||_F^2 = L^-m
sum over the plane of |difference|^2, in O(L^(m-1)) work.
"""
from __future__ import annotations

import numpy as np

from .ring import LengthMismatchError, Signal, std_offset


class Spectrum:
    """Complex Fourier coefficients indexed by frequencies in standard parametrization."""

    __slots__ = ("L", "values")

    def __init__(self, values):
        values = np.asarray(values, dtype=complex).copy()
        values.setflags(write=False)
        self.L = values.size
        self.values = values

    def value_at(self, xi: int) -> complex:
        return complex(self.values[(xi + std_offset(self.L)) % self.L])

    def natural(self) -> np.ndarray:
        return np.roll(self.values, -std_offset(self.L))

    @classmethod
    def from_natural(cls, values) -> "Spectrum":
        values = np.asarray(values, dtype=complex)
        return cls(np.roll(values, std_offset(values.size)))


class MomentTensor:
    """Group-averaged moment tensor E_G[(G theta)^(x m)] or a difference thereof.

    Orders 2 and 3 hold `fourier`, the DFT on the plane (module docstring) over
    (xi_1, ..., xi_(m-1)); the dense L^m `data`, in standard order, is built
    from it on first read.  First and sample moments hold `data` only.
    """

    def __init__(self, order: int, data: np.ndarray | None = None,
                 fourier: np.ndarray | None = None):
        self.order = order
        self.fourier = fourier
        self._data = data

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            L = self.fourier.shape[0]
            full = np.zeros((L,) * self.order, dtype=complex)
            full[_plane(L, self.order)] = self.fourier
            self._data = np.real(np.fft.ifftn(full))
        return self._data

    def frobenius(self) -> float:
        if self.fourier is None:
            return float(np.linalg.norm(self._data.ravel()))
        # Parseval for the m-dimensional transform; the plane holds all of it
        return float(np.linalg.norm(self.fourier) / self.fourier.shape[0] ** (self.order / 2))


def _plane(L: int, m: int) -> tuple:
    """Index arrays of the plane xi_1 + ... + xi_m = 0 (mod L) over its first m - 1 axes."""
    free = tuple(np.indices((L,) * (m - 1)))
    return free + ((-sum(free)) % L,)


def _moment_fourier(theta: Signal, m: int) -> np.ndarray:
    """hat(theta)(xi_1) ... hat(theta)(xi_m) on the plane, from standard-order values."""
    f = np.fft.fft(theta.values)
    return np.prod([f[i] for i in _plane(theta.L, m)], axis=0)


def dft(v: Signal) -> Spectrum:
    return Spectrum.from_natural(np.fft.fft(v.natural()))


def idft(s: Spectrum) -> Signal:
    vals = np.fft.ifft(s.natural())
    return Signal.from_natural(np.real(vals))


def convolve(u: Signal, v: Signal) -> Signal:
    """Cyclic convolution [u * v](k) = sum_g u(g) v(k - g)."""
    if u.L != v.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (u.L, v.L))
    out = np.fft.ifft(np.fft.fft(u.natural()) * np.fft.fft(v.natural()))
    return Signal.from_natural(np.real(out))


def _circulant(c: np.ndarray) -> np.ndarray:
    """L x L matrix with entries c[(i - j) mod L], for c in natural order."""
    i = np.arange(c.size)
    return c[(i[:, None] - i[None, :]) % c.size]


def toeplitz(v: Signal) -> np.ndarray:
    """Circulant matrix M(v) with entries M[i, j] = v(i - j)."""
    return _circulant(v.natural())


def autocorrelation(theta: Signal) -> np.ndarray:
    """Periodic autocorrelation A(l) = sum_i theta(i) theta(i+l), standard order."""
    p = np.abs(np.fft.fft(theta.natural())) ** 2
    return np.roll(np.real(np.fft.ifft(p)), std_offset(theta.L))


def power_spectrum(theta: Signal) -> np.ndarray:
    """|hat(theta)|^2 at frequencies in standard order; nonnegative."""
    return np.abs(dft(theta).values) ** 2


def second_moment_generator(theta: Signal) -> np.ndarray:
    """Circulant generator J (natural residue order) of E_G[(G theta)^(x 2)].

    J(k) = A_theta(k) / L, the scaled periodic autocorrelation.
    """
    p = np.abs(np.fft.fft(theta.natural())) ** 2
    return np.real(np.fft.ifft(p)) / theta.L


def second_moment(theta: Signal) -> MomentTensor:
    """Second moment tensor E_G[(G theta)^(x 2)] = (1/L) M(theta * reflect(theta))."""
    return MomentTensor(order=2, fourier=_moment_fourier(theta, 2))


def delta_m(theta: Signal, phi: Signal, m: int) -> MomentTensor:
    """Difference of order-m group-averaged moment tensors of theta and phi."""
    if theta.L != phi.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (theta.L, phi.L))
    if m == 1:
        # E_G[G theta] = mean(theta) * ones
        return MomentTensor(order=1, data=(theta.mean() - phi.mean()) * np.ones(theta.L))
    if m in (2, 3):
        return MomentTensor(order=m, fourier=_moment_fourier(theta, m) - _moment_fourier(phi, m))
    raise ValueError("moment order must be 1, 2 or 3; got %r" % (m,))


def second_moment_expansion_generators(theta: Signal, h: np.ndarray):
    """Circulant generators (natural lag order) of the linear and quadratic
    parts of Delta_2(theta + h, theta), for one h or a stack of rows h in
    standard-order values."""
    th = np.fft.fft(theta.values)
    hh = np.fft.fft(h)
    lin = np.real(np.fft.ifft(2 * np.real(th * np.conj(hh)))) / theta.L
    quad = np.real(np.fft.ifft(np.abs(hh) ** 2)) / theta.L
    return lin, quad


def second_moment_difference_expansion(theta: Signal, h: Signal):
    """Split Delta_2(theta + h, theta) into its linear and quadratic parts in h.

    Delta_2 = (1/L)[M(theta * reflect(h)) + M(reflect(theta) * h)] (linear)
            + (1/L) M(h * reflect(h))                              (quadratic).
    Returns (linear_part, quadratic_part) as dense L x L matrices.
    """
    if theta.L != h.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (theta.L, h.L))
    lin, quad = second_moment_expansion_generators(theta, h.values)
    return _circulant(lin), _circulant(quad)


def empirical_moments(observations: np.ndarray, order: int, sigma: float) -> MomentTensor:
    """Sample moment tensors from rows of `observations` (standard-order vectors).

    Order 2 subtracts the known-noise bias sigma^2 I.
    """
    y = np.asarray(observations, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("observations must be a nonempty n x L array")
    n, L = y.shape
    if order == 1:
        return MomentTensor(order=1, data=y.mean(axis=0))
    if order == 2:
        data = (y.T @ y) / n - sigma**2 * np.eye(L)
        return MomentTensor(order=2, data=data)
    raise ValueError("empirical moments support orders 1 and 2; got %r" % (order,))
