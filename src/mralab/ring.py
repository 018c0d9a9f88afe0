"""Index arithmetic on the discrete circle Z_L, group actions and orbit distances.

Vectors are functions on Z_L enumerated in the standard parametrization
{-floor((L-1)/2), ..., 0, ..., ceil((L-1)/2)}; the conversion to machine
(array) indices is internal and never leaks into results.  `std_indices`
and its inverse `storage_index` are the one rule between the two orders, and
`action_index` the one rule for where a group element sends a storage
index; shifts, reflections, orbit matrices and alignment all gather through it.

Every JSON object read as input (a signal, difference profile, restricted
class, probe config, scan config or scan sub-dict) goes through one reader,
`read_keys(name, d, defaults, rules)`: it refuses, naming the object and the
key, a d that is not an object, a key the reader does not know and a
`REQUIRED` key that is missing, and fills every other missing key from its
default.  Each value given is read by its rule and named by its key, with a
prefix in a scan sub-dict ("kl.n_mc").  There are three rules, each a
ValueError naming the value when it fails: `integer(name, x, lo)`, an int
that is not a bool and is at least lo; `number(name, x, positive)`, a finite
real that is not a bool, and positive if asked; and `residues(L, entries,
what)`, a list of integers no two of which are one residue mod L, read as
their storage positions.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass
from numbers import Integral, Real

import numpy as np


class LengthMismatchError(ValueError):
    """Two signals of different lengths were combined."""


def std_offset(L: int) -> int:
    return (L - 1) // 2


def std_indices(L: int) -> np.ndarray:
    """Standard-parametrization index set of Z_L, in storage order."""
    return np.arange(L) - std_offset(L)


def storage_index(L: int, i) -> np.ndarray:
    """Storage positions of standard indices i, read mod L; broadcasts, and
    inverts `std_indices`: storage_index(L, std_indices(L)) is arange(L)."""
    return (np.asarray(i, dtype=int) + std_offset(L)) % L


#: `read_keys`'s default for a key that must be given: the dataclasses marker
#: for a field with no default, so a dataclass's field defaults serve as one
REQUIRED = MISSING


def read_keys(name: str, d, defaults: dict, rules: dict, prefix: str = "") -> dict:
    """The JSON object d as a dict with exactly the keys of defaults: a key
    given is read as rule(prefix + key, value, arg) where rules maps it to
    (rule, arg), else kept; a key not given takes its default.  Refuses, by
    name, a d that is not an object, the first key (sorted) not in defaults
    and the first `REQUIRED` key not given."""
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %r" % (name, d))
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError("unknown %s key %r; known keys: %s"
                         % (name, unknown[0], ", ".join(defaults)))
    for key, default in defaults.items():
        if default is REQUIRED and key not in d:
            raise ValueError("missing %s key %r" % (name, key))
    return {key: rules[key][0](prefix + key, d[key], rules[key][1]) if key in d and key in rules
            else d.get(key, default) for key, default in defaults.items()}


def integer(name: str, x, lo=-np.inf) -> int:
    """x as an int: an integer that is not a bool, and at least lo."""
    if not isinstance(x, Integral) or isinstance(x, bool):
        raise ValueError("%s must be an integer, got %r" % (name, x))
    if x < lo:
        raise ValueError("need %s >= %s, got %r" % (name, lo, x))
    return int(x)


def number(name: str, x, positive: bool = False) -> float:
    """x as a float: a finite real that is not a bool (nor a string), and
    above 0 when `positive`."""
    low = 0 if positive else -np.inf
    if not isinstance(x, Real) or isinstance(x, bool) or not low < x < np.inf:
        raise ValueError("%s must be %s, got %r"
                         % (name, "positive and finite" if positive else "a finite number", x))
    return float(x)


def residues(L: int, entries, what: str) -> np.ndarray:
    """Storage positions at length L of entries, a list of integers of which
    no two are one residue mod L; `what` names them in a refusal."""
    if not isinstance(entries, (list, tuple, set, frozenset)):
        raise ValueError("%s must be a list of integers, got %r" % (what, entries))
    seen = {}
    for i in entries:
        r = integer(what + " entry", i) % L
        if r in seen:
            raise ValueError("%s entries %d and %d are one residue mod %d"
                             % (what, seen[r], i, L))
        seen[r] = i
    return storage_index(L, list(entries))


class Signal:
    """A real-valued function on Z_L, stored in standard-parametrization order."""

    __slots__ = ("L", "values")

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("signal must be a 1-D vector of length >= 2")
        values = values.copy()
        values.setflags(write=False)
        self.L = values.size
        self.values = values

    @property
    def support(self) -> frozenset:
        idx = std_indices(self.L)
        return frozenset(int(i) for i in idx[self.values != 0.0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def mean(self) -> float:
        return float(np.mean(self.values))

    def natural(self) -> np.ndarray:
        """Values reindexed so array position n holds the value at n mod L."""
        return np.roll(self.values, -std_offset(self.L))

    @classmethod
    def from_natural(cls, values) -> "Signal":
        values = np.asarray(values, dtype=float)
        return cls(np.roll(values, std_offset(values.size)))

    @classmethod
    def zeros(cls, L: int) -> "Signal":
        return cls(np.zeros(L))

    @classmethod
    def delta(cls, L: int, i: int = 0, amplitude: float = 1.0) -> "Signal":
        v = np.zeros(L)
        v[storage_index(L, i)] = amplitude
        return cls(v)

    @classmethod
    def from_support(cls, L: int, entries: dict) -> "Signal":
        """Build a signal from a {standard index: value} mapping."""
        v = np.zeros(L)
        v[storage_index(L, list(entries))] = list(entries.values())
        return cls(v)

    def to_json_dict(self) -> dict:
        idx = std_indices(self.L)
        mask = self.values != 0.0
        return {
            "L": self.L,
            "format": "standard-parametrization",
            "support": [int(i) for i in idx[mask]],
            "values": [float(x) for x in self.values[mask]],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Signal":
        """Read `to_json_dict`'s form, every key required: an integer L >= 2,
        support entries no two of one residue mod L, and one finite value per
        entry."""
        d = read_keys("signal", d, dict.fromkeys(("L", "format", "support", "values"), REQUIRED),
                      {"L": (integer, 2)})
        if d["format"] != "standard-parametrization":
            raise ValueError("unknown signal format: %r" % d["format"])
        pos, values = residues(d["L"], d["support"], "support"), d["values"]
        if not isinstance(values, list) or len(values) != len(pos):
            raise ValueError("need a list of %d values, one per support entry, got %r"
                             % (len(pos), values))
        v = np.zeros(d["L"])
        v[pos] = [number("values entry", x) for x in values]
        return cls(v)

    def __eq__(self, other):
        return (
            isinstance(other, Signal)
            and self.L == other.L
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self):
        return "Signal(L=%d, support=%s)" % (self.L, sorted(self.support))


@dataclass(frozen=True)
class GroupElement:
    """An isometry of Z_L: rotation by `shift`, optionally preceded by reflection.

    Acts as (G v)(i) = v(eps*(i + shift)) with eps = -1 when flip else +1:
    v(i + shift) for a rotation, v(-i - shift) for a flip.  That is
    G v = R_shift(F^flip v), where (R_g v)(i) = v(i + g) and (F v)(i) = v(-i),
    so the reflection acts first.
    """

    shift: int
    flip: bool = False

    def apply(self, v: Signal) -> Signal:
        return Signal(v.values[action_index(v.L, self.shift, self.flip)])

    def inverse(self, L: int) -> "GroupElement":
        # (R_g F)^-1 = F R_{-g} = R_g F since F R_g F = R_{-g}
        if self.flip:
            return GroupElement(self.shift % L, True)
        return GroupElement((-self.shift) % L, False)


def action_index(L: int, shift, flip) -> np.ndarray:
    """Storage indices of G = (shift, flip): v.values[action_index(L, g, f)] is G v.
    (G v)(i) = v(eps (i + shift)), eps = -1 for a flip.  Broadcasts over shift
    and flip, with storage positions on the last axis."""
    off = std_offset(L)
    eps = 1 - 2 * np.asarray(flip, dtype=int)[..., None]
    return (eps * (np.arange(L) - off + np.asarray(shift)[..., None]) + off) % L


def orbit_index(L: int, dihedral: bool) -> np.ndarray:
    """(|G|, L) indices: row k of theta.values[idx] is G_k theta, where G_k =
    GroupElement(k % L, k >= L): the L rotations, then the L reflections.  The
    adjoint scatter-adds through idx: it maps W @ Y to sum_i sum_G w_i(G) G^-1 y_i."""
    flips = np.arange(2 if dihedral else 1)[:, None]
    return action_index(L, np.arange(L), flips).reshape(-1, L)


def shift(v: Signal, g: int) -> Signal:
    """Rotate: output(i) = v(i + g)."""
    return GroupElement(g).apply(v)


def reflect(v: Signal) -> Signal:
    """Reflect about the origin: output(i) = v(-i)."""
    return GroupElement(0, True).apply(v)


def align_spectra(rows: np.ndarray, phi: Signal, dihedral: bool = False):
    """`align` for each of a stack of standard-order rows: arrays (shift,
    flip, distance).  G phi is the cyclic storage shift by `shift` of F^flip
    phi, so one irfft of the rows' rfft gives <row, G phi> for all of G,
    enumerated as `orbit_index` rows k = shift + L flip; the largest gives
    the smallest distance, which is then evaluated exactly at that element."""
    L = phi.L
    flipped = phi.values[action_index(L, 0, np.arange(2 if dihedral else 1))]
    c = np.fft.irfft(np.conj(np.fft.rfft(rows))[..., None, :] * np.fft.rfft(flipped), n=L)
    k = np.argmax(c.reshape(c.shape[:-2] + (-1,)), axis=-1)
    del c  # freed before the distances' temporaries
    g, flip = k % L, k >= L
    return g, flip, np.linalg.norm(rows - phi.values[action_index(L, g, flip)], axis=-1)


def align(theta: Signal, phi: Signal, dihedral: bool = False):
    """Minimize ||theta - G phi|| over the group; returns (argmin G, distance)."""
    if theta.L != phi.L:
        raise LengthMismatchError("signals have lengths %d and %d" % (theta.L, phi.L))
    g, flip, d = align_spectra(theta.values, phi, dihedral)
    return GroupElement(int(g), bool(flip)), float(d)


def rho(theta: Signal, phi: Signal, dihedral: bool = False) -> float:
    """Orbit distance min_G ||theta - G phi||_2."""
    return align(theta, phi, dihedral=dihedral)[1]


def varrho(theta: Signal, phi: Signal, dihedral: bool = False) -> float:
    """Scaled orbit distance rho / sqrt(L)."""
    return rho(theta, phi, dihedral=dihedral) / np.sqrt(theta.L)
