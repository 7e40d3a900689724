"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the closed-form solutions in the package: Bloch
dynamics and rate equations are integrated with fixed-step RK4, and line
averages use dense trapezoid sums.  Keep them independent; they are the
other side of every dual-route check.
"""

import numpy as np


def _cross_rows(a, b):
    """Row-wise cross product for (n, 3) arrays (cheaper than np.cross)."""
    return np.stack(
        [
            a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
        ],
        axis=1,
    )


def rk4_bloch_batch(r0, omega, phase, detuning_hz, duration, steps=2000):
    """Integrate dr/dt = A x r for a batch of pulses.

    ``r0`` is (n, 3); ``omega`` (rad/s), ``phase`` (rad), ``detuning_hz``
    and ``duration`` (s) are (n,).  Returns the final (n, 3) states.
    """
    omega = np.asarray(omega, float)
    axes = np.stack(
        [
            omega * np.cos(phase),
            omega * np.sin(phase),
            2.0 * np.pi * np.asarray(detuning_hz, float),
        ],
        axis=1,
    )
    r = np.array(r0, dtype=float)
    h = (np.asarray(duration, float) / steps)[:, None]

    def f(state):
        return _cross_rows(axes, state)

    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * h * k1)
        k3 = f(r + 0.5 * h * k2)
        k4 = f(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r


def two_pulse_reference(det, amp, wts, rabi, taus, t2, refocus, steps=2000):
    """Member-by-member Ramsey inversion or echo magnitude at each tau.

    Every (tau, member) pair is one row of an RK4 batch: pulses of
    duration (pi/2)/rabi and pi/rabi are integrated with
    :func:`rk4_bloch_batch`, and each delay is written out as a rotation
    about z by 2 pi det tau that damps u and v by exp(-tau/t2).  Ramsey
    (``refocus=False``) returns the weighted mean of w after
    pi/2 - tau - pi/2; the echo returns |<u + i v>| after
    pi/2 - tau - pi - tau.
    """
    det, amp, wts, taus = (np.asarray(x, float) for x in (det, amp, wts, taus))
    n, m = det.size, taus.size
    det_b, omega_b = np.tile(det, m), np.tile(rabi * amp, m)
    tau_b = np.repeat(taus, n)
    theta = 2.0 * np.pi * det_b * tau_b
    damp = np.exp(-tau_b / t2)

    def pulse(r, duration):
        return rk4_bloch_batch(r, omega_b, np.zeros(n * m), det_b, np.full(n * m, duration), steps)

    def delay(r):
        c, s = np.cos(theta), np.sin(theta)
        u, v, w = r[:, 0], r[:, 1], r[:, 2]
        return np.stack([damp * (c * u - s * v), damp * (s * u + c * v), w], axis=1)

    r = delay(pulse(np.tile([0.0, 0.0, -1.0], (n * m, 1)), 0.5 * np.pi / rabi))
    if not refocus:
        r = pulse(r, 0.5 * np.pi / rabi)
        return (wts * r[:, 2].reshape(m, n)).sum(axis=1)
    r = delay(pulse(r, np.pi / rabi))
    perp = (r[:, 0] + 1j * r[:, 1]).reshape(m, n)
    return np.abs((wts * perp).sum(axis=1))


def rk4_rates_batch(p0, generators, durations, steps=20000):
    """Integrate dp/dt = K p for a batch of generators.

    ``p0`` is (n, 4), ``generators`` (n, 4, 4), ``durations`` (n,).
    """
    p = np.array(p0, dtype=float)
    h = (np.asarray(durations, float) / steps)[:, None]

    def f(state):
        return np.einsum("nij,nj->ni", generators, state)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def lorentzian_density(f, fwhm):
    hw = fwhm / 2.0
    return (hw / np.pi) / (f**2 + hw**2)


def brute_pi_fidelity_avg(omega, fwhm, span_fwhm=20.0, n_detunings=4001, steps=2000):
    """Line-averaged pi-pulse transfer via RK4 propagation + dense sum.

    Independent of the package's closed-form rotation and adaptive
    quadrature: every detuning on the dense grid is integrated with RK4
    from (0, 0, -1) over one pi time, and the transfer probabilities are
    trapezoid-averaged against the Lorentzian weights.
    """
    det = np.linspace(-span_fwhm * fwhm, span_fwhm * fwhm, n_detunings)
    weights = lorentzian_density(det, fwhm)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    n = det.size
    r0 = np.tile([0.0, 0.0, -1.0], (n, 1))
    r = rk4_bloch_batch(
        r0,
        np.full(n, omega),
        np.zeros(n),
        det,
        np.full(n, np.pi / omega),
        steps=steps,
    )
    transfer = 0.5 * (1.0 + r[:, 2])
    return float((weights * transfer).sum() / weights.sum())
