"""Simulated baseband channel: phase fading, transmitter I/Q imbalance, AWGN.

The alphabet is data: label ``i`` sends the point ``QPSK[i]``, a read-only
module constant.  A frame is one coherence block.  The channel state (carrier
phase, amplitude imbalance, phase skew) is drawn once per frame and applied to
every symbol in it; the receiver sees pilots and payload symbols distorted by
the same state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .checks import class_labels, integer, real

#: Upper bound of the relative I/Q gain mismatch.
AMP_IMB_MAX = 0.15
#: Upper bound of the I/Q phase skew, radians.
PHASE_IMB_MAX = 0.15 * math.pi / 180.0
#: Shape parameters of the Beta law the imbalance magnitudes are scaled from.
_BETA_A, _BETA_B = 5.0, 2.0


#: Unit-energy QPSK, the one alphabet; label ``i`` transmits ``QPSK[i]``.  The
#: labels are Gray-coded, walking the quadrants so that neighbouring labels
#: differ in one bit: 0 -> (+,+), 1 -> (-,+), 2 -> (-,-), 3 -> (+,-).
QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2.0)
QPSK.flags.writeable = False


@dataclass(frozen=True)
class ChannelParams:
    """Per-frame channel state, shared by every symbol of the frame."""

    phase: float      # carrier phase offset, radians in [0, 2*pi)
    amp_imb: float    # relative I/Q gain mismatch, in [0, AMP_IMB_MAX]
    phase_imb: float  # I/Q phase skew, radians in [0, PHASE_IMB_MAX]

    def __post_init__(self) -> None:
        if not 0.0 <= self.phase < 2.0 * math.pi:
            raise ValueError(f"phase must be in [0, 2*pi), got {self.phase!r}")
        if not 0.0 <= self.amp_imb <= AMP_IMB_MAX:
            raise ValueError(f"amp_imb must be in [0, {AMP_IMB_MAX}], got {self.amp_imb!r}")
        if not 0.0 <= self.phase_imb <= PHASE_IMB_MAX:
            raise ValueError(
                f"phase_imb must be in [0, {PHASE_IMB_MAX}], got {self.phase_imb!r}"
            )


def sample_channel_params(rng: np.random.Generator) -> ChannelParams:
    """Draw one independent channel state.

    The phase is uniform over the circle; both imbalance magnitudes are their
    upper bound times a Beta(5, 2) variate (mean 5/7, so typical hardware sits
    near, but below, the worst case).  Draw order is fixed: phase, amplitude
    imbalance, phase skew.
    """
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amp_imb = AMP_IMB_MAX * rng.beta(_BETA_A, _BETA_B)
    phase_imb = PHASE_IMB_MAX * rng.beta(_BETA_A, _BETA_B)
    return ChannelParams(phase, amp_imb, phase_imb)


def apply_iq_imbalance(y: complex, amp_imb: float, phase_imb: float) -> complex:
    """Distort a symbol by transmitter-side I/Q imbalance.

    The I and Q rails are mixed by a symmetric skew matrix and then scaled by
    mismatched gains::

        [i']   [1+amp_imb      0     ] [ cos d   -sin d] [i]
        [q'] = [    0      1-amp_imb ] [-sin d    cos d] [q]

    with ``d = phase_imb``.  Note the skew matrix is symmetric (both
    off-diagonal entries are ``-sin d``), so it is not a rotation.
    """
    c, s = math.cos(phase_imb), math.sin(phase_imb)
    yi, yq = y.real, y.imag
    return complex(
        (1.0 + amp_imb) * (c * yi - s * yq),
        (1.0 - amp_imb) * (-s * yi + c * yq),
    )


def transmit(
    labels: np.ndarray,
    params: ChannelParams,
    snr_linear: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Send QPSK symbols through the channel and return the received samples,
    a complex128 array shaped like ``labels``; a label that is not an integer
    in ``[0, 4)`` raises ``ValueError``.

    Each point ``QPSK[label]`` is I/Q-distorted, rotated by the frame's carrier
    phase, and hit by circular complex Gaussian noise of total power
    ``1 / snr_linear`` (variance ``1 / (2 * snr_linear)`` per component).
    ``snr_linear=inf`` yields a noiseless channel.

    The noise is one ``(n, 2)`` standard normal draw, (re, im) per symbol in
    label order: the same stream, and so the same samples, as ``n``
    one-symbol calls.  The clean point of each label is computed once, in
    scalar arithmetic, and the noise is added per real component, so every
    sample has the bits a one-symbol call gives it.
    """
    snr_linear = real("snr_linear", snr_linear)
    if not snr_linear > 0.0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear!r}")
    labels = class_labels(labels, len(QPSK))
    rotation = cmath.exp(1j * params.phase)
    clean = np.array(
        [
            rotation * apply_iq_imbalance(point, params.amp_imb, params.phase_imb)
            for point in QPSK.tolist()
        ]
    )
    scale = math.sqrt(1.0 / (2.0 * snr_linear))
    noise = rng.standard_normal((labels.size, 2)).reshape(*labels.shape, 2)
    xs = np.empty(labels.shape, dtype=np.complex128)
    xs.real = clean.real[labels] + scale * noise[..., 0]
    xs.imag = clean.imag[labels] + scale * noise[..., 1]
    return xs


@dataclass(frozen=True)
class Frame:
    """Pilot and payload samples received under one channel realization."""

    params: ChannelParams
    pilot_x: np.ndarray  # complex128, shape (n_pilots,)
    pilot_y: np.ndarray  # integer labels, shape (n_pilots,)
    test_x: np.ndarray   # complex128, shape (n_test,)
    test_y: np.ndarray   # integer labels, shape (n_test,)

    def __post_init__(self) -> None:
        if len(self.pilot_x) != len(self.pilot_y) or len(self.test_x) != len(self.test_y):
            raise ValueError("sample and label arrays must have matching lengths")


def generate_frame(
    n_pilots: int,
    n_test: int,
    snr_linear: float,
    alphabet: np.ndarray,
    rng: np.random.Generator,
) -> Frame:
    """Simulate one frame: draw a channel state, then transmit random labels.

    Labels are i.i.d. uniform over QPSK's labels for pilots and payload alike.
    All symbols share the single per-frame channel state.  The counts must be
    Python or numpy integers, at least 1.

    ``alphabet`` must hold the ``QPSK`` points in label order; anything else
    raises ``ValueError``.
    """
    # Not a choice: QPSK is the only alphabet.  Kept as an argument because the
    # benchmark script passes ``harness.make_constellation("qpsk")``.
    if not np.array_equal(alphabet, QPSK):
        raise ValueError(f"the alphabet must be QPSK, {QPSK.tolist()}, got {alphabet!r}")
    n_pilots, n_test = integer("n_pilots", n_pilots), integer("n_test", n_test)
    if n_pilots < 1 or n_test < 1:
        raise ValueError("n_pilots and n_test must both be at least 1")
    params = sample_channel_params(rng)
    labels = rng.integers(0, len(QPSK), size=n_pilots + n_test)
    xs = transmit(labels, params, snr_linear, rng)
    return Frame(
        params,
        xs[:n_pilots],
        labels[:n_pilots].astype(np.int64),
        xs[n_pilots:],
        labels[n_pilots:].astype(np.int64),
    )
