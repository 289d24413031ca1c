"""Channel simulation: the QPSK alphabet, channel state, distortion, frames."""

import math

import numpy as np
import pytest
from scipy import stats

from cpdemod.channel import (
    AMP_IMB_MAX,
    PHASE_IMB_MAX,
    QPSK,
    ChannelParams,
    Frame,
    apply_iq_imbalance,
    generate_frame,
    sample_channel_params,
    transmit,
)
from helpers import reference_frame

SNR_5DB = 10.0 ** 0.5
HALF_SQRT2 = 0.7071067811865476


def test_qpsk_points_and_energy():
    assert QPSK.shape == (4,) and QPSK.dtype == np.complex128
    assert QPSK[0] == pytest.approx(HALF_SQRT2 + HALF_SQRT2 * 1j, abs=1e-7)
    assert len(set(QPSK.tolist())) == 4
    assert np.mean(np.abs(QPSK) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_qpsk_gray_quadrant_walk():
    # One sign flip per step of the label order: (+,+), (-,+), (-,-), (+,-).
    signs = [(np.sign(p.real), np.sign(p.imag)) for p in QPSK]
    assert signs == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_qpsk_is_read_only():
    # Every frame of every process transmits this one array.
    assert not QPSK.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        QPSK[0] = 1.0


def test_channel_params_ranges_and_moments():
    rng = np.random.default_rng(7)
    draws = [sample_channel_params(rng) for _ in range(100_000)]
    phases = np.array([p.phase for p in draws])
    amps = np.array([p.amp_imb for p in draws])
    skews = np.array([p.phase_imb for p in draws])
    assert phases.min() >= 0.0 and phases.max() < 2.0 * math.pi
    assert amps.min() >= 0.0 and amps.max() <= AMP_IMB_MAX
    assert skews.min() >= 0.0 and skews.max() <= PHASE_IMB_MAX
    # Beta(5, 2) has mean 5/7; both imbalances are bound * Beta(5, 2).
    assert phases.mean() == pytest.approx(math.pi, abs=0.02)
    assert amps.mean() == pytest.approx(AMP_IMB_MAX * 5.0 / 7.0, abs=0.002)
    assert skews.mean() == pytest.approx(PHASE_IMB_MAX * 5.0 / 7.0, abs=0.002 * PHASE_IMB_MAX / AMP_IMB_MAX)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"phase": -0.1, "amp_imb": 0.0, "phase_imb": 0.0},
        {"phase": 2.0 * math.pi, "amp_imb": 0.0, "phase_imb": 0.0},
        {"phase": 0.0, "amp_imb": AMP_IMB_MAX * 1.01, "phase_imb": 0.0},
        {"phase": 0.0, "amp_imb": -0.01, "phase_imb": 0.0},
        {"phase": 0.0, "amp_imb": 0.0, "phase_imb": PHASE_IMB_MAX * 1.01},
    ],
)
def test_channel_params_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        ChannelParams(**kwargs)


def test_iq_imbalance_identity_when_disabled():
    # Signed zeros, the smallest subnormals and the largest magnitude, then
    # 100 draws of magnitude up to 10, half of them log-uniform down to 1e-300.
    rng = np.random.default_rng(31)
    radius = np.concatenate([10.0 * rng.uniform(size=50), 10.0 ** rng.uniform(-300, 1, size=50)])
    drawn = radius * np.exp(2j * math.pi * rng.uniform(size=100))
    edges = [0j, complex(-0.0, -0.0), complex(5e-324, -5e-324), 10 + 0j, -10j]
    for y in edges + [complex(y) for y in drawn]:
        assert apply_iq_imbalance(y, 0.0, 0.0) == y, f"y = {y!r}"


def test_iq_imbalance_pure_gain_mismatch():
    # Zero skew: rails are scaled by (1 +/- amp_imb) independently.
    out = apply_iq_imbalance(1.0 + 1.0j, 0.15, 0.0)
    assert out.real == pytest.approx(1.15, abs=1e-12)
    assert out.imag == pytest.approx(0.85, abs=1e-12)


def test_iq_imbalance_symmetric_skew():
    # Quarter-turn skew with no gain error sends (1, 0) to (0, -1): both
    # off-diagonal mix terms are -sin, so the map is symmetric, not a rotation.
    out = apply_iq_imbalance(1.0 + 0.0j, 0.0, math.pi / 2.0)
    assert out.real == pytest.approx(0.0, abs=1e-12)
    assert out.imag == pytest.approx(-1.0, abs=1e-12)


def test_transmit_noiseless_clean_channel_is_identity():
    params = ChannelParams(0.0, 0.0, 0.0)
    rng = np.random.default_rng(0)
    for label in range(4):
        assert transmit(label, params, math.inf, rng) == complex(QPSK[label])


def test_transmit_noiseless_half_turn_negates():
    params = ChannelParams(math.pi, 0.0, 0.0)
    rng = np.random.default_rng(0)
    for label in range(4):
        got = transmit(label, params, math.inf, rng)
        assert got == pytest.approx(-complex(QPSK[label]), abs=1e-12)


@pytest.mark.parametrize("snr", [0.0, -1.0, -math.inf])
def test_transmit_rejects_nonpositive_snr(snr):
    with pytest.raises(ValueError):
        transmit(0, ChannelParams(0.0, 0.0, 0.0), snr, np.random.default_rng(0))


@pytest.mark.parametrize("snr", [True, "10", None])
def test_transmit_rejects_snr_that_is_not_real(snr):
    # True would run the channel at SNR 1.
    with pytest.raises(ValueError, match="^snr_linear must be a real number"):
        transmit(0, ChannelParams(0.0, 0.0, 0.0), snr, np.random.default_rng(0))


@pytest.mark.parametrize(
    "labels,match",
    [([-1, 3], r"must lie in \[0, 4\)"), ([0, 7], r"must lie in \[0, 4\)"),
     (1.0, "must be integers"), ([0.0, 1.0], "must be integers")],
)
def test_transmit_rejects_labels_outside_the_alphabet(labels, match):
    # -1 would index the last point and send label 3's symbol.
    params = ChannelParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=match):
        transmit(labels, params, math.inf, np.random.default_rng(0))


def test_transmit_noise_variance_matches_snr():
    params = ChannelParams(0.0, 0.0, 0.0)
    rng = np.random.default_rng(42)
    clean = complex(QPSK[0])
    received = transmit(np.zeros(400_000, dtype=np.int64), params, SNR_5DB, rng)
    noise = received - clean
    expected = 1.0 / (2.0 * SNR_5DB)  # per-component variance, ~0.15811
    # 1% of the target is ~4.5 standard errors of a sample variance over 4e5
    # draws, so seed noise cannot flip this while a wrong noise scaling can.
    assert np.var(noise.real) == pytest.approx(expected, rel=0.01)
    assert np.var(noise.imag) == pytest.approx(expected, rel=0.01)
    # Total complex noise power is the reciprocal SNR.
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0 / SNR_5DB, rel=0.01)


def test_transmit_one_label_is_element_zero_of_an_array_of_one():
    params = ChannelParams(1.0, 0.1, 0.002)
    for label in range(len(QPSK)):
        one = transmit(label, params, SNR_5DB, np.random.default_rng(label))
        arr = transmit(np.array([label]), params, SNR_5DB, np.random.default_rng(label))
        assert arr.shape == (1,)
        assert np.array([one]).tobytes() == arr.tobytes()


@pytest.mark.parametrize("snr", [SNR_5DB, math.inf, 1e-3], ids=lambda snr: f"{snr}-qpsk")
def test_generate_frame_equals_per_symbol_reference(snr):
    # 40 seeds per case, 120 in all; the first of each case has a 5000-symbol
    # payload.  Byte equality, so signed zeros count too.
    for seed in range(40):
        n_pilots, n_test = 1 + seed % 60, 5000 if seed == 0 else 1 + 7 * seed
        got = generate_frame(n_pilots, n_test, snr, QPSK, np.random.default_rng(seed))
        want = reference_frame(n_pilots, n_test, snr, np.random.default_rng(seed))
        assert got.params == want.params
        for name in ("pilot_x", "pilot_y", "test_x", "test_y"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (seed, name)


@pytest.mark.parametrize(
    "alphabet",
    [np.exp(2j * np.pi * np.arange(8) / 8), 2 * QPSK, np.tile(QPSK, 2), QPSK[[1, 0, 2, 3]]],
    ids=["8psk", "qpsk-scaled", "qpsk-repeated", "qpsk-reordered"],
)
def test_generate_frame_rejects_any_alphabet_but_qpsk(alphabet):
    with pytest.raises(ValueError, match="alphabet must be QPSK"):
        generate_frame(10, 5, SNR_5DB, alphabet, np.random.default_rng(0))


@pytest.mark.parametrize("pilots, payload", [(3, 1), (1, 3)], ids=["pilots", "payload"])
def test_frame_rejects_samples_and_labels_of_different_lengths(pilots, payload):
    params = sample_channel_params(np.random.default_rng(0))
    with pytest.raises(ValueError, match="^sample and label arrays must have matching lengths$"):
        Frame(params, np.zeros(pilots, complex), np.zeros(2, np.int64),
              np.zeros(payload, complex), np.zeros(2, np.int64))


def test_generate_frame_shapes_and_label_range():
    frame = generate_frame(12, 34, SNR_5DB, QPSK, np.random.default_rng(3))
    assert frame.pilot_x.shape == (12,) and frame.test_x.shape == (34,)
    all_labels = np.concatenate([frame.pilot_y, frame.test_y])
    assert all_labels.min() >= 0 and all_labels.max() <= 3


@pytest.mark.parametrize("n_pilots,n_test", [(0, 10), (10, 0), (0, 0)])
def test_generate_frame_rejects_zero_counts(n_pilots, n_test):
    with pytest.raises(ValueError):
        generate_frame(n_pilots, n_test, SNR_5DB, QPSK, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n_pilots,n_test,field",
    [(True, 3, "n_pilots"), (2.5, 3, "n_pilots"), (3, 3.0, "n_test"), (3, "3", "n_test")],
)
def test_generate_frame_rejects_counts_that_are_not_integers(n_pilots, n_test, field):
    # True would send a one-pilot frame, and 2.5 would fail inside numpy
    # with a message that names neither count.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        generate_frame(n_pilots, n_test, SNR_5DB, QPSK, np.random.default_rng(0))


def test_generate_frame_numpy_integer_counts_give_the_same_frame():
    a = generate_frame(np.int64(5), np.uint8(3), np.float32(2.0), QPSK,
                       np.random.default_rng(4))
    b = generate_frame(5, 3, float(np.float32(2.0)), QPSK, np.random.default_rng(4))
    assert a.pilot_y.shape == (5,) and a.test_y.shape == (3,)
    assert all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("pilot_x", "pilot_y", "test_x", "test_y"))


def test_generate_frame_same_seed_is_bit_identical():
    a = generate_frame(10, 20, SNR_5DB, QPSK, np.random.default_rng(11))
    b = generate_frame(10, 20, SNR_5DB, QPSK, np.random.default_rng(11))
    assert a.params == b.params
    assert np.array_equal(a.pilot_x, b.pilot_x) and np.array_equal(a.pilot_y, b.pilot_y)
    assert np.array_equal(a.test_x, b.test_x) and np.array_equal(a.test_y, b.test_y)


def test_generate_frame_shares_one_channel_state():
    # Noiseless, so each label maps to exactly one received point; pilots and
    # payload must land on the same distorted alphabet.
    frame = generate_frame(60, 60, math.inf, QPSK, np.random.default_rng(5))
    xs = np.concatenate([frame.pilot_x, frame.test_x])
    ys = np.concatenate([frame.pilot_y, frame.test_y])
    for label in range(4):
        values = set(xs[ys == label].tolist())
        assert len(values) <= 1


def test_pilot_labels_uniform_chi_squared():
    rng = np.random.default_rng(123)
    counts = np.zeros(4, dtype=np.int64)
    for _ in range(10_000):
        frame = generate_frame(10, 1, SNR_5DB, QPSK, rng)
        counts += np.bincount(frame.pilot_y, minlength=4)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01
