"""Core signal types and closed-form phasor math for two-frequency depth
correction.

Everything here is a pure function over immutable inputs: the differential
phasor that converts a residual phase into a depth correction, and the
unambiguous-correction window implied by a frequency difference.

Units are SI throughout: meters, hertz, radians. Complex values are
double-precision (complex128).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StructuralError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

# Bundled two-frequency configurations spanning a 10 GHz band below 82 GHz,
# keyed by the nominal frequency difference in GHz.
FREQUENCY_PAIRS = {
    "0.5": (81.45e9, 82.00e9),
    "1.0": (80.98e9, 82.00e9),
    "2.0": (79.95e9, 82.00e9),
    "4.0": (77.91e9, 82.00e9),
    "8.0": (73.97e9, 82.00e9),
    "10.0": (72.00e9, 82.00e9),
}


def freeze(obj, **fields) -> None:
    """Set validated fields on a frozen dataclass. Arrays are stored
    read-only: one already frozen (read-only and owning its data) is
    shared, any other is copied, so the caller's own arrays stay writable
    and writing to them cannot reach a field."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray) and (value.flags.writeable or not value.flags.owndata):
            value = value.copy(order="K")
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class FrequencySet:
    """An ordered set of carrier frequencies in hertz.

    Frequencies must be strictly increasing and positive, so every ordered
    pair has a positive difference.
    """

    frequencies: tuple

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if len(freqs) < 1:
            raise ConfigurationError("frequency set must contain at least one carrier")
        if not np.isfinite(freqs).all():
            raise ConfigurationError(f"carrier frequencies must be finite, got {freqs}")
        if any(f <= 0.0 for f in freqs):
            raise ConfigurationError("carrier frequencies must be positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigurationError("carrier frequencies must be strictly increasing")
        freeze(self, frequencies=freqs)

    def __len__(self):
        return len(self.frequencies)

    def __getitem__(self, k: int) -> float:
        return self.frequencies[k]

    def delta(self) -> float:
        """Difference between the last and the first carrier."""
        d = self.frequencies[-1] - self.frequencies[0]
        if d <= 0.0:
            raise ConfigurationError("frequency difference must be positive")
        return d

    @classmethod
    def from_pair_name(cls, name: str) -> "FrequencySet":
        """Look up one of the bundled two-frequency configurations."""
        try:
            return cls(FREQUENCY_PAIRS[str(name)])
        except KeyError:
            known = ", ".join(sorted(FREQUENCY_PAIRS))
            raise ConfigurationError(
                f"unknown frequency pair {name!r} (known: {known})"
            ) from None

    @classmethod
    def triple_from_pair_names(cls, low: str, high: str) -> "FrequencySet":
        """Three-carrier set built from two bundled pairs sharing their top
        frequency: the low-difference pair supplies the fine carrier, the
        high-difference pair the far one."""
        f_low = cls.from_pair_name(low)
        f_high = cls.from_pair_name(high)
        if f_low.frequencies[1] != f_high.frequencies[1]:
            raise ConfigurationError("pairs must share their upper carrier")
        carriers = sorted({*f_low.frequencies, *f_high.frequencies})
        if len(carriers) != 3:
            raise ConfigurationError("pair combination does not yield three carriers")
        return cls(tuple(carriers))


@dataclass(frozen=True)
class AntennaArray:
    """Transmit and receive element positions of a MIMO aperture, meters."""

    tx_positions: np.ndarray  # (T, 3)
    rx_positions: np.ndarray  # (R, 3)

    def __post_init__(self):
        tx = np.atleast_2d(np.asarray(self.tx_positions, dtype=np.float64))
        rx = np.atleast_2d(np.asarray(self.rx_positions, dtype=np.float64))
        if tx.ndim != 2 or tx.shape[1] != 3 or tx.shape[0] < 1:
            raise StructuralError("tx_positions must be a (T, 3) array with T >= 1")
        if rx.ndim != 2 or rx.shape[1] != 3 or rx.shape[0] < 1:
            raise StructuralError("rx_positions must be a (R, 3) array with R >= 1")
        if not (np.isfinite(tx).all() and np.isfinite(rx).all()):
            raise StructuralError("antenna positions must be finite")
        freeze(self, tx_positions=tx, rx_positions=rx)

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.n_tx * self.n_rx


def mimo_cross_array(n_tx: int, n_rx: int, aperture: float) -> AntennaArray:
    """Orthogonal linear TX/RX arrays (TX along x, RX along y), the usual
    layout that fills a 2-D virtual aperture with n_tx*n_rx pairs."""
    if n_tx < 1 or n_rx < 1 or aperture <= 0.0:
        raise ConfigurationError("array needs n_tx, n_rx >= 1 and a positive aperture")
    tx_x = np.linspace(-aperture / 2.0, aperture / 2.0, n_tx) if n_tx > 1 else np.zeros(1)
    rx_y = np.linspace(-aperture / 2.0, aperture / 2.0, n_rx) if n_rx > 1 else np.zeros(1)
    tx = np.column_stack([tx_x, np.zeros(n_tx), np.zeros(n_tx)])
    rx = np.column_stack([np.zeros(n_rx), rx_y, np.zeros(n_rx)])
    return AntennaArray(tx, rx)


@dataclass(frozen=True)
class Scene:
    """Ideal point targets: positions, complex reflectivities, and a constant
    per-target phase offset added to every echo."""

    positions: np.ndarray       # (N, 3) meters
    reflectivities: np.ndarray  # (N,) complex
    phase_offsets: np.ndarray   # (N,) radians

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        refl = np.atleast_1d(np.asarray(self.reflectivities, dtype=np.complex128))
        phi = np.atleast_1d(np.asarray(self.phase_offsets, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise StructuralError("positions must be a (N, 3) array with N >= 1")
        if refl.shape != (pos.shape[0],) or phi.shape != (pos.shape[0],):
            raise StructuralError("reflectivities and phase_offsets must be (N,)")
        if not (np.isfinite(pos).all() and np.isfinite(refl).all() and np.isfinite(phi).all()):
            raise StructuralError("scene values must be finite")
        if np.any(np.abs(refl) <= 0.0):
            raise StructuralError("reflectivity magnitudes must be positive")
        freeze(self, positions=pos, reflectivities=refl, phase_offsets=phi)

    @property
    def n_targets(self) -> int:
        return self.positions.shape[0]

    def union(self, other: "Scene") -> "Scene":
        return Scene(
            np.vstack([self.positions, other.positions]),
            np.concatenate([self.reflectivities, other.reflectivities]),
            np.concatenate([self.phase_offsets, other.phase_offsets]),
        )


@dataclass(frozen=True)
class BasebandTensor:
    """Demodulated complex measurements indexed (tx, rx, frequency)."""

    data: np.ndarray  # (T, R, F) complex128

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise StructuralError("baseband data must have shape (T, R, F)")
        if not np.isfinite(data).all():
            raise StructuralError("baseband entries must be finite")
        freeze(self, data=data)

    @property
    def shape(self):
        return self.data.shape

    def check_consistent(self, array: AntennaArray, freqs: FrequencySet) -> None:
        t, r, f = self.data.shape
        if (t, r, f) != (array.n_tx, array.n_rx, len(freqs)):
            raise StructuralError(
                f"baseband shape {(t, r, f)} does not match array "
                f"{(array.n_tx, array.n_rx)} and {len(freqs)} frequencies"
            )


def max_unambiguous_depth(delta_f: float) -> float:
    """Half-width of the depth window a frequency difference can correct
    without phase wrapping: c / (4 delta_f)."""
    if delta_f <= 0.0:
        raise ConfigurationError("frequency difference must be positive")
    return SPEED_OF_LIGHT / (4.0 * delta_f)


def phase_to_depth_correction(phase, f_eff: float):
    """Convert a residual phase (radians) into a signed depth correction.

    The correction is c * phase / (4 pi f_eff): linear and odd in the phase,
    so a phase at +/-pi maps to +/- the maximum unambiguous correction.
    """
    if f_eff <= 0.0:
        raise ConfigurationError("effective frequency must be positive")
    return SPEED_OF_LIGHT / (4.0 * np.pi * f_eff) * np.asarray(phase, dtype=np.float64)


def differential_phasor(c1, c2):
    """Combine two residual phasors into one at their difference frequency:
    c2 * conj(c1), whose angle is the wrapped phase difference."""
    return np.multiply(c2, np.conj(c1))


def principal_phase(z):
    """Angle of a complex value in (-pi, pi]; exact ties resolve to +pi."""
    ang = np.angle(z)
    return np.where(ang == -np.pi, np.pi, ang)[()]


def residual_phase(z):
    """Signed residual phase carried by a correlation phasor.

    Correlation phasors encode a phase lag as exp(-j phi), so the signed
    residual is the angle of the conjugate; a target beyond the assumed
    depth yields a positive residual.
    """
    return principal_phase(np.conj(z))
