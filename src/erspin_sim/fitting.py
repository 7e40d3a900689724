"""Deterministic least-squares fitting of trace data.

Four model families cover every trace the experiments produce:

* ``single-exponential``   a * exp(-x/tau) + c
* ``biexponential``        a1 * exp(-x/tau_slow) + a2 * exp(-x/tau_fast) + c
* ``sinusoid-decay``       a * cos(2 pi f x + phi) * exp(-rate * x) + c
* ``lorentzian``           a / (1 + (2 (x - x0) / fwhm)^2) + c

Each fit is one Levenberg-Marquardt run (MINPACK through
``scipy.optimize.least_squares(method="lm")``, imported by the first fit so
that runs without a fit never load scipy) on data rescaled to order
unity, from a single seeded start per model: the sinusoid frequency comes
from the discrete spectrum peak, exponential time constants from 1/e
crossings, and the biexponential amplitudes and offset from a linear
least-squares solve at the seeded rates.  An optimizer that stops without
converging raises :class:`FitError`.  Identical inputs give bit-identical
results.

One-sigma uncertainties are the Gauss-Newton covariance built from the
optimizer's Jacobian at the optimum; they are zero for an exact fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _least_squares():
    """``scipy.optimize.least_squares``, bound into this module on first use.

    Once bound, the module attribute is what fits call, so a replacement
    set with ``setattr(fitting, "least_squares", ...)`` takes its place.
    """
    fn = globals().get("least_squares")
    if fn is None:
        from scipy.optimize import least_squares as fn

        globals()["least_squares"] = fn
    return fn


def __getattr__(name):  # PEP 562: ``fitting.least_squares`` exists before the first fit
    if name == "least_squares":
        return _least_squares()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FitError(RuntimeError):
    """Raised for degenerate or insufficient fit input, or a fit that did not converge."""


@dataclass(frozen=True)
class FitResult:
    model: str
    parameters: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float


# ---------------------------------------------------------------------------
# Models on rescaled coordinates (x in [0, 1]-ish, y of order 1)


def _f_single_exponential(p, x):
    a, rate, c = p
    return a * np.exp(-np.abs(rate) * x) + c


def _f_biexponential(p, x):
    a1, r1, a2, r2, c = p
    return a1 * np.exp(-np.abs(r1) * x) + a2 * np.exp(-np.abs(r2) * x) + c


def _f_sinusoid_decay(p, x):
    a, f, phi, rate, c = p
    return a * np.cos(2.0 * np.pi * f * x + phi) * np.exp(-np.abs(rate) * x) + c


def _f_lorentzian(p, x):
    a, x0, w, c = p
    return a / (1.0 + (2.0 * (x - x0) / w) ** 2) + c


def _crossing_scale(x, z, level):
    """First x at which |z| falls below level, as a decay-scale estimate."""
    below = np.nonzero(np.abs(z) < level)[0]
    if below.size and below[0] > 0:
        return max(float(x[below[0]]), 1e-3)
    return (x[-1] - x[0]) / 3.0 if x[-1] > x[0] else 1.0


def _seed_single_exponential(x, y):
    c = float(y[-1])
    a = float(y[0] - c)
    tau = _crossing_scale(x, y - c, abs(a) / np.e if a else 1.0)
    return np.array([a, 1.0 / tau, c])


def _seed_biexponential(x, y):
    c = float(y[-1])
    z = y - c
    i = int(np.argmax(np.abs(z)))
    peak = float(z[i])
    # the slow 1/e time is read after the peak, past any fast rise
    r1 = 1.0 / _crossing_scale(x[i:], z[i:], abs(peak) / np.e if peak else 1.0)
    r2 = 4.0 * r1
    # Amplitudes and offset are solved for at the seeded rates.  A fast
    # amplitude read off the peak is zero when the trace peaks at x = 0, and
    # along a zero amplitude rate2 has no gradient.
    basis = np.stack([np.exp(-r1 * x), np.exp(-r2 * x), np.ones_like(x)], axis=1)
    a1, a2, c = np.linalg.lstsq(basis, y, rcond=None)[0]
    return np.array([a1, r1, a2, r2, c])


def _seed_sinusoid_decay(x, y):
    n = len(x)
    dx = (x[-1] - x[0]) / (n - 1)
    spec = np.fft.rfft(y - y.mean())
    k = 1 + int(np.argmax(np.abs(spec[1:]))) if n > 2 else 1
    f0 = np.fft.rfftfreq(n, d=dx)[k]
    phi0 = float(np.angle(spec[k]))
    a0 = float(np.sqrt(2.0) * np.std(y))
    c0 = float(y.mean())
    return np.array([a0, f0, phi0, 0.0, c0])


def _seed_lorentzian(x, y):
    c = 0.5 * float(y[0] + y[-1])
    z = y - c
    i = int(np.argmax(np.abs(z)))
    a = float(z[i])
    x0 = float(x[i])
    if a != 0.0:
        inside = np.abs(z) >= abs(a) / 2.0
        w = max(float(inside.sum()) * (x[-1] - x[0]) / max(len(x) - 1, 1), 1e-3)
    else:
        w = (x[-1] - x[0]) / 4.0
    return np.array([a, x0, w, c])


_MODELS = {
    "single-exponential": (_f_single_exponential, _seed_single_exponential, ("amplitude", "rate", "offset")),
    "biexponential": (_f_biexponential, _seed_biexponential, ("amp1", "rate1", "amp2", "rate2", "offset")),
    "sinusoid-decay": (_f_sinusoid_decay, _seed_sinusoid_decay, ("amplitude", "frequency", "phase", "decay_rate", "offset")),
    "lorentzian": (_f_lorentzian, _seed_lorentzian, ("amplitude", "center", "fwhm", "offset")),
}

MODEL_NAMES = tuple(_MODELS)


def _as_xy(trace):
    arr = np.asarray(trace, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr[:, 0].copy(), arr[:, 1].copy()
    if isinstance(trace, tuple) and len(trace) == 2:
        x = np.asarray(trace[0], dtype=float)
        y = np.asarray(trace[1], dtype=float)
        if x.shape == y.shape and x.ndim == 1:
            return x.copy(), y.copy()
    raise FitError("trace must be (x, y) arrays or a sequence of (x, y) pairs")


def fit(trace, model: str, initial_guess: dict[str, float] | None = None) -> FitResult:
    """Least-squares fit of ``trace`` with the named model.

    ``trace`` is a pair of equal-length arrays or a sequence of (x, y)
    pairs with at least twice as many points as model parameters.  An
    ``initial_guess`` maps parameter names (see the returned
    ``parameters``) to starting values and replaces the heuristic seed;
    the returned residual norm never exceeds the one at the start.

    Exponential models report time constants ``tau`` (and
    ``tau_slow``/``tau_fast``, sorted) alongside the raw rates.  Constant
    input is degenerate for every model; it yields a zero-amplitude result
    rather than an error.  Raises :class:`FitError` for non-finite data,
    too few points, an unknown model or an optimizer that did not converge.
    """
    if model not in _MODELS:
        raise FitError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    fn, seeder, names = _MODELS[model]
    x, y = _as_xy(trace)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("trace contains non-finite values")
    if len(x) < 2 * len(names):
        raise FitError(f"need at least {2 * len(names)} points for {model}")
    if np.any(np.diff(x) < 0):
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]

    # rescale to order unity; parameters are transformed back afterwards
    xs = float(x[-1] - x[0]) or 1.0
    x0 = float(x[0])
    ys = float(np.max(np.abs(y))) or 1.0
    u = (x - x0) / xs
    v = y / ys

    p0 = seeder(u, v)
    if initial_guess is not None:
        heuristic = _scale_params(model, dict(zip(names, p0)), x0, xs, ys, forward=False)
        merged = _merge_guess(model, heuristic, initial_guess)
        p0 = _scale_params(model, merged, x0, xs, ys, forward=True)

    try:
        res = _least_squares()(lambda p: fn(p, u) - v, p0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    except ValueError as exc:  # e.g. an initial_guess whose residuals are not finite
        raise FitError(str(exc)) from None
    if res.status <= 0:
        raise FitError(f"{model} fit did not converge: {res.message}")
    if not np.all(np.isfinite(res.x)):
        raise FitError("optimization diverged")

    # Gauss-Newton covariance from the optimizer's Jacobian at res.x
    s2 = 2.0 * res.cost / max(len(u) - len(names), 1)
    cov = s2 * np.linalg.pinv(res.jac.T @ res.jac)
    popt, sigma = _canonical(model, res.x, np.sqrt(np.clip(np.diag(cov), 0.0, None)))
    params = _scale_params(model, dict(zip(names, popt)), x0, xs, ys, forward=False)
    uncert = _scale_params(model, dict(zip(names, sigma)), x0, xs, ys, forward=False, is_sigma=True)
    _add_time_constants(model, params, uncert)
    return FitResult(
        model=model,
        parameters=params,
        uncertainties=uncert,
        residual_norm=float(np.sqrt(2.0 * res.cost)) * ys,
    )


def _canonical(model, p, sigma):
    """Fold sign conventions: rates non-negative, biexponential sorted slow-first.

    ``sigma`` (uncertainties of ``p``) is reordered along with ``p``.
    """
    p = np.array(p, dtype=float)
    if model == "single-exponential":
        p[1] = abs(p[1])
    elif model == "sinusoid-decay":
        if p[1] < 0:  # cos(-2 pi f u + phi) = cos(2 pi f u - phi)
            p[1], p[2] = -p[1], -p[2]
        p[3] = abs(p[3])
        p[2] = float(np.remainder(p[2] + np.pi, 2.0 * np.pi) - np.pi)
    elif model == "biexponential":
        p[1], p[3] = abs(p[1]), abs(p[3])
        if p[1] > p[3]:  # rate1 must be the slow component
            order = [2, 3, 0, 1, 4]
            p, sigma = p[order], sigma[order]
    elif model == "lorentzian":
        p[2] = abs(p[2])
    return p, sigma


def _merge_guess(model, heuristic, guess):
    """Overlay user-supplied starting values (original units) on the heuristic."""
    names = _MODELS[model][2]
    unknown = set(guess) - set(names) - {"tau", "tau_slow", "tau_fast"}
    if unknown:
        raise FitError(f"unknown parameters in initial_guess: {sorted(unknown)}")
    out = dict(heuristic)
    out.update({k: float(vv) for k, vv in guess.items() if k in names})
    if "tau" in guess:
        out["rate"] = 1.0 / float(guess["tau"])
    if "tau_slow" in guess:
        out["rate1"] = 1.0 / float(guess["tau_slow"])
    if "tau_fast" in guess:
        out["rate2"] = 1.0 / float(guess["tau_fast"])
    return out


_X_SCALED = {  # how each parameter transforms under x -> (x - x0)/xs, y -> y/ys
    "amplitude": "y",
    "amp1": "y",
    "amp2": "y",
    "offset": "y",
    "rate": "inv_x",
    "rate1": "inv_x",
    "rate2": "inv_x",
    "decay_rate": "inv_x",
    "frequency": "inv_x",
    "phase": "phase",
    "center": "x",
    "fwhm": "dx",
}


def _scale_params(model, params, x0, xs, ys, forward, is_sigma=False):
    names = _MODELS[model][2]
    freq = params.get("frequency", 0.0)
    out = {}
    for name in names:
        val = float(params[name])
        kind = _X_SCALED[name]
        if kind == "y":
            out[name] = val / ys if forward else val * ys
        elif kind == "inv_x":
            out[name] = val * xs if forward else val / xs
        elif kind == "x":
            if is_sigma:
                out[name] = val / xs if forward else val * xs
            else:
                out[name] = (val - x0) / xs if forward else val * xs + x0
        elif kind == "dx":
            out[name] = val / xs if forward else val * xs
        else:  # phase: shift so that it refers to x = 0
            if is_sigma:
                out[name] = val
            elif forward:
                out[name] = val + 2.0 * np.pi * freq * x0
            else:
                out[name] = val - 2.0 * np.pi * (freq / xs) * x0
    if not forward and not is_sigma:
        return out
    if forward:
        return np.array([out[n] for n in names])
    return out


def _add_time_constants(model, params, uncert):
    def tau_of(rate_key, tau_key):
        r = params[rate_key]
        params[tau_key] = 1.0 / r if r > 0 else np.inf
        sr = uncert[rate_key]
        uncert[tau_key] = sr / r**2 if r > 0 and r**2 > 0 else np.inf  # r**2 underflows below ~1e-154

    if model == "single-exponential":
        tau_of("rate", "tau")
    elif model == "biexponential":
        tau_of("rate1", "tau_slow")
        tau_of("rate2", "tau_fast")


def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-column trace CSV, skipping '#' metadata and the header."""
    xs, ys = [], []
    with open(path) as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True  # single column-name line
                continue
            a, b = line.split(",")
            xs.append(float(a))
            ys.append(float(b))
    if not xs:
        raise FitError(f"no data rows in {path}")
    return np.array(xs), np.array(ys)
