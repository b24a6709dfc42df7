"""Node placement, free-space path loss, Rayleigh fading, and CSI error injection.

Channel gains are block-fading: one realization is drawn per aggregation round
and every symbol within the round sees the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The loss model is defined with the rounded propagation constant; keep it.
SPEED_OF_LIGHT = 3.0e8


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic random stream keyed by (master_seed, *key).

    Streams with distinct keys are statistically independent and do not
    depend on creation order, so Monte Carlo trials stay reproducible under
    concurrent or out-of-order execution.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), *(int(k) for k in key)])
    )


def _complex_normal(rng: np.random.Generator, shape=()) -> np.ndarray:
    # Circularly-symmetric unit-variance: real and imaginary parts are
    # independent N(0, 1/2).
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


@dataclass(frozen=True)
class PathLossParams:
    """Free-space loss parameters: antenna gain, carrier frequency (Hz), exponent."""

    antenna_gain: float = 4.11
    carrier_freq: float = 915e6
    exponent: float = 3.0

    def __post_init__(self):
        if self.antenna_gain <= 0 or self.carrier_freq <= 0 or self.exponent <= 0:
            raise ValueError("path-loss parameters must all be positive")


@dataclass(frozen=True)
class NodeLayout:
    """Positions (meters) of the access point, relays, and devices on the plane."""

    ap_position: np.ndarray
    relay_positions: np.ndarray  # (N, 2)
    device_positions: np.ndarray  # (K, 2)

    def __post_init__(self):
        ap = np.asarray(self.ap_position, dtype=float).reshape(2)
        relays = np.asarray(self.relay_positions, dtype=float).reshape(-1, 2)
        devices = np.asarray(self.device_positions, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "ap_position", ap)
        object.__setattr__(self, "relay_positions", relays)
        object.__setattr__(self, "device_positions", devices)
        if devices.shape[0] < 1:
            raise ValueError("layout needs at least one device")
        if not (np.isfinite(ap).all() and np.isfinite(relays).all() and np.isfinite(devices).all()):
            raise ValueError("positions must be finite")
        for d in (self.device_ap_distances(), self.device_relay_distances().ravel(),
                  self.relay_ap_distances()):
            if d.size and np.any(d <= 0):
                raise ValueError("coincident nodes: all link distances must be positive")

    @property
    def num_devices(self) -> int:
        return self.device_positions.shape[0]

    @property
    def num_relays(self) -> int:
        return self.relay_positions.shape[0]

    def device_ap_distances(self) -> np.ndarray:
        return np.linalg.norm(self.device_positions - self.ap_position, axis=1)

    def device_relay_distances(self) -> np.ndarray:
        """(K, N) matrix of device-to-relay distances."""
        if self.num_relays == 0:
            return np.zeros((self.num_devices, 0))
        diff = self.device_positions[:, None, :] - self.relay_positions[None, :, :]
        return np.linalg.norm(diff, axis=2)

    def relay_ap_distances(self) -> np.ndarray:
        if self.num_relays == 0:
            return np.zeros(0)
        return np.linalg.norm(self.relay_positions - self.ap_position, axis=1)


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence interval of complex gains.

    h: device-to-AP, length K.  g: device-to-relay, K x N.  f: relay-to-AP, length N.
    """

    h: np.ndarray
    g: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex).reshape(-1)
        f = np.asarray(self.f, dtype=complex).reshape(-1)
        g = np.asarray(self.g, dtype=complex).reshape(h.size, f.size)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        if not (np.isfinite(h).all() and np.isfinite(g).all() and np.isfinite(f).all()):
            raise ValueError("channel gains must be finite")

    @property
    def num_devices(self) -> int:
        return self.h.size

    @property
    def num_relays(self) -> int:
        return self.f.size


@dataclass(frozen=True)
class PathGains:
    """Large-scale (path-loss) power gains for every link in a layout."""

    h: np.ndarray  # (K,)
    g: np.ndarray  # (K, N)
    f: np.ndarray  # (N,)


def path_loss(distance, params: PathLossParams):
    """Free-space power gain: antenna_gain * (c / (4 pi f_c d)) ** exponent.

    Accepts scalars or arrays; distances must be strictly positive.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("path loss requires a positive distance")
    gain = params.antenna_gain * (
        SPEED_OF_LIGHT / (4.0 * np.pi * params.carrier_freq * d)
    ) ** params.exponent
    return gain if gain.ndim else float(gain)


def path_gain_profile(layout: NodeLayout, params: PathLossParams) -> PathGains:
    """Path-loss power gains for all device-AP, device-relay, and relay-AP links."""
    gh = path_loss(layout.device_ap_distances(), params)
    drd = layout.device_relay_distances()
    gg = path_loss(drd, params) if drd.size else np.zeros_like(drd)
    rad = layout.relay_ap_distances()
    gf = path_loss(rad, params) if rad.size else np.zeros_like(rad)
    return PathGains(h=np.atleast_1d(gh), g=gg, f=np.atleast_1d(gf))


def realize_channels(layout: NodeLayout, params: PathLossParams,
                     rng: np.random.Generator) -> ChannelRealization:
    """Draw one block-fading realization: sqrt(path gain) times unit Rayleigh fading.

    Draw order is fixed (h, then g, then f) so equal seeds give equal channels.
    """
    gains = path_gain_profile(layout, params)
    h = np.sqrt(gains.h) * _complex_normal(rng, gains.h.shape)
    g = np.sqrt(gains.g) * _complex_normal(rng, gains.g.shape)
    f = np.sqrt(gains.f) * _complex_normal(rng, gains.f.shape)
    return ChannelRealization(h=h, g=g, f=f)


def perturb_channels(channels: ChannelRealization, gains: PathGains, kappa: float,
                     rng: np.random.Generator) -> ChannelRealization:
    """Apply the CSI-error model entry-wise to a full realization.

    The returned realization is what the transceiver optimizer sees; the true
    channels remain in force on the air.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")

    def perceived(true, gain, shape):
        n = _complex_normal(rng, shape)
        return np.sqrt(kappa) * true + np.sqrt((1.0 - kappa) * gain) * n

    h = perceived(channels.h, gains.h, channels.h.shape)
    g = perceived(channels.g, gains.g, channels.g.shape)
    f = perceived(channels.f, gains.f, channels.f.shape)
    return ChannelRealization(h=h, g=g, f=f)


def line_layout(num_devices: int, rng: np.random.Generator, *, x_relay: float = 50.0,
                device_x: tuple[float, float] = (80.0, 120.0),
                device_y_half: float = 60.0) -> NodeLayout:
    """AP at the origin, one relay on the x axis, devices uniform in a rectangle."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    xs = rng.uniform(device_x[0], device_x[1], num_devices)
    ys = rng.uniform(-device_y_half, device_y_half, num_devices)
    return NodeLayout(
        ap_position=np.zeros(2),
        relay_positions=np.array([[x_relay, 0.0]]),
        device_positions=np.column_stack([xs, ys]),
    )


def cell_layout(num_devices: int, num_relays: int, rng: np.random.Generator, *,
                cell_radius: float = 120.0, ring_radius: float = 50.0) -> NodeLayout:
    """AP at the cell center, devices uniform in the disc, relays equally spaced on a ring."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    if num_relays < 0:
        raise ValueError("num_relays must be nonnegative")
    radii = cell_radius * np.sqrt(rng.uniform(0.0, 1.0, num_devices))
    angles = rng.uniform(0.0, 2.0 * np.pi, num_devices)
    devices = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    ring = 2.0 * np.pi * np.arange(num_relays) / max(num_relays, 1)
    relays = ring_radius * np.column_stack([np.cos(ring), np.sin(ring)])
    if num_relays == 0:
        relays = np.zeros((0, 2))
    return NodeLayout(ap_position=np.zeros(2), relay_positions=relays,
                      device_positions=devices)
