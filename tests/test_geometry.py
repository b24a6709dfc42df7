import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayfl import aggregation
from relayfl.geometry import (
    ChannelRealization,
    NodeLayout,
    SingularChannelError,
    cell_layout,
    line_layout,
    path_gain_profile,
    path_loss,
    perturb_channels,
    realize_channels,
    stream,
)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0) == pytest.approx(7.300e-5, rel=1e-3)

    def test_hundred_meters_scales_cubically(self):
        assert path_loss(100.0) == pytest.approx(7.300e-11, rel=1e-3)
        assert path_loss(100.0) == pytest.approx(path_loss(1.0) / 1e6)

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, distance):
        with pytest.raises(ValueError):
            path_loss(distance)

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_distance(self, d, factor):
        assert path_loss(d * factor) < path_loss(d)


def _many_device_channels(seed, num_devices=25_000, num_relays=4):
    """Channels and path gains of a large cell, so statistics come from vector draws."""
    layout = cell_layout(num_devices, num_relays, stream(seed))
    gains = path_gain_profile(layout)
    return realize_channels(gains, stream(seed, 1)), gains


def _entries(links):
    """Every link coefficient (h, g, f) of a realization or a gain profile, flattened."""
    return np.concatenate([links.h, links.g.ravel(), links.f])


class TestSmallScale:
    """At kappa = 0 the perceived channel is sqrt(path gain) times a fresh CN(0, 1) draw."""

    def test_zero_mean(self):
        ch, gains = _many_device_channels(11)
        draws = _entries(perturb_channels(ch, gains, 0.0, stream(12))) / np.sqrt(_entries(gains))
        assert abs(draws.mean()) < 0.01

    def test_unit_second_moment(self):
        ch, gains = _many_device_channels(12)
        perceived = perturb_channels(ch, gains, 0.0, stream(13))
        power = np.abs(_entries(perceived)) ** 2 / _entries(gains)
        assert power.mean() == pytest.approx(1.0, abs=0.01)

    def test_seed_determinism(self):
        ch, gains = _many_device_channels(5, num_devices=50)
        a = perturb_channels(ch, gains, 0.3, stream(5, 3))
        b = perturb_channels(ch, gains, 0.3, stream(5, 3))
        assert np.array_equal(_entries(a), _entries(b))
        assert not np.array_equal(_entries(a), _entries(perturb_channels(ch, gains, 0.3,
                                                                         stream(5, 4))))


def _toy_layout(num_relays=1):
    return NodeLayout(
        ap_position=[0.0, 0.0],
        relay_positions=[[50.0, 0.0]][:num_relays] if num_relays else np.zeros((0, 2)),
        device_positions=[[100.0, 10.0], [90.0, -20.0], [110.0, 5.0]],
    )


class TestRealizeChannels:
    def test_relay_free_layout_gives_empty_relay_gains(self):
        layout = _toy_layout(num_relays=0)
        ch = realize_channels(path_gain_profile(layout), stream(1))
        assert ch.h.shape == (3,)
        assert ch.g.shape == (3, 0)
        assert ch.f.shape == (0,)

    def test_mean_power_matches_path_loss(self):
        layout = _toy_layout()
        expected = path_loss(layout.device_ap_distances())
        gains = path_gain_profile(layout)
        rng = stream(21)
        trials = 30_000
        sampled = np.empty((trials, 3), dtype=complex)
        for i in range(trials):
            sampled[i] = realize_channels(gains, rng).h
        assert np.mean(np.abs(sampled) ** 2, axis=0) == pytest.approx(expected, rel=0.02)

    def test_identical_seeds_identical_realizations(self):
        gains = path_gain_profile(_toy_layout())
        a = realize_channels(gains, stream(3, 1))
        b = realize_channels(gains, stream(3, 1))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.f, b.f)


class TestChannelRealization:
    @pytest.mark.parametrize("link", ["h", "g", "f"])
    def test_zero_gain_rejected(self, link):
        gains = {"h": np.ones(3, dtype=complex), "g": np.full((3, 2), 0.5 - 0.5j),
                 "f": np.array([1j, 2.0])}
        gains[link].flat[1] = 0
        with pytest.raises(SingularChannelError):
            ChannelRealization(**gains)

    def test_error_is_the_one_aggregation_raises(self):
        assert aggregation.SingularChannelError is SingularChannelError
        assert issubclass(SingularChannelError, ValueError)

    def test_empty_relay_axis_accepted(self):
        ch = ChannelRealization(h=[1.0, 1j], g=np.zeros((2, 0)), f=np.zeros(0))
        assert ch.g.shape == (2, 0)
        assert ch.num_relays == 0


class TestCsiError:
    def test_exact_csi_is_identity(self):
        ch, gains = _many_device_channels(7)
        same = perturb_channels(ch, gains, 1.0, stream(8))
        assert np.array_equal(_entries(same), _entries(ch))

    def test_full_error_ignores_true_channel(self):
        ch, gains = _many_device_channels(8)
        big = ChannelRealization(h=np.full_like(ch.h, 123.0 + 45.0j),
                                 g=np.full_like(ch.g, 123.0 + 45.0j),
                                 f=np.full_like(ch.f, 123.0 + 45.0j))
        outs = perturb_channels(big, gains, 0.0, stream(9))
        assert np.array_equal(_entries(outs),
                              _entries(perturb_channels(ch, gains, 0.0, stream(9))))
        draws = _entries(outs) / np.sqrt(_entries(gains))
        assert abs(draws.mean()) < 0.02
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_error_variance_at_intermediate_kappa(self):
        kappa = 0.6
        ch, gains = _many_device_channels(9)
        perceived = perturb_channels(ch, gains, kappa, stream(10))
        diff = _entries(perceived) - np.sqrt(kappa) * _entries(ch)
        assert np.mean(np.abs(diff) ** 2 / _entries(gains)) == pytest.approx(1 - kappa, rel=0.02)

    @pytest.mark.parametrize("kappa", [-0.1, 1.1])
    def test_kappa_out_of_range(self, kappa):
        ch, gains = _many_device_channels(1, num_devices=3)
        with pytest.raises(ValueError):
            perturb_channels(ch, gains, kappa, stream(1))

    def test_perturb_channels_perfect_csi(self):
        layout = _toy_layout()
        gains = path_gain_profile(layout)
        ch = realize_channels(gains, stream(4))
        same = perturb_channels(ch, gains, 1.0, stream(5))
        assert np.allclose(same.h, ch.h)
        assert np.allclose(same.g, ch.g)
        assert np.allclose(same.f, ch.f)


class TestLayouts:
    def test_line_layout_geometry(self):
        layout = line_layout(50, stream(31), x_relay=50.0)
        assert layout.relay_positions.shape == (1, 2)
        assert np.allclose(layout.relay_positions[0], [50.0, 0.0])
        x = layout.device_positions[:, 0]
        y = layout.device_positions[:, 1]
        assert np.all((x >= 80) & (x <= 120))
        assert np.all((y >= -60) & (y <= 60))

    def test_cell_layout_geometry(self):
        layout = cell_layout(200, 4, stream(32))
        radius = np.linalg.norm(layout.device_positions, axis=1)
        assert np.all(radius <= 120.0)
        ring = np.linalg.norm(layout.relay_positions, axis=1)
        assert ring == pytest.approx(np.full(4, 50.0))
        # equally spaced relays
        angles = np.sort(np.arctan2(layout.relay_positions[:, 1],
                                    layout.relay_positions[:, 0]))
        spacing = np.diff(angles)
        assert spacing == pytest.approx(np.full(3, np.pi / 2))

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            NodeLayout(ap_position=[0, 0], relay_positions=[[0, 0]],
                       device_positions=[[1, 1]])

    def test_stream_is_order_independent(self):
        a = stream(42, 0, 5).standard_normal(4)
        _ = stream(42, 0, 3).standard_normal(4)
        b = stream(42, 0, 5).standard_normal(4)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: NodeLayout(ap_position=[0, 0], relay_positions=[[50, 0]],
                                    device_positions=np.zeros((0, 2))),
                 "at least one device", id="layout-no-devices"),
    pytest.param(lambda: NodeLayout(ap_position=[0, 0], relay_positions=[[50, 0]],
                                    device_positions=[[np.inf, 0]]),
                 "finite", id="layout-infinite-device"),
    pytest.param(lambda: ChannelRealization(h=[np.inf + 0j], g=[[1.0 + 0j]], f=[1.0 + 0j]),
                 "finite", id="channel-infinite-gain"),
    pytest.param(lambda: line_layout(0, stream(1)), "at least one device", id="line-no-devices"),
    pytest.param(lambda: cell_layout(0, 2, stream(1)), "at least one device",
                 id="cell-no-devices"),
    # NodeLayout alone checks the count; NumPy refuses a negative one first.
    pytest.param(lambda: line_layout(-1, stream(1)), "negative dimensions",
                 id="line-negative-devices"),
    pytest.param(lambda: cell_layout(-1, 2, stream(1)), "negative dimensions",
                 id="cell-negative-devices"),
    pytest.param(lambda: cell_layout(3, -1, stream(1)), "nonnegative", id="cell-relays-negative"),
])
def test_bad_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
