"""Deterministic least-squares fitting of trace data.

Four model families cover every trace the experiments produce:

* ``single-exponential``   a * exp(-x/tau) + c
* ``biexponential``        a1 * exp(-x/tau_slow) + a2 * exp(-x/tau_fast) + c
* ``sinusoid-decay``       a * cos(2 pi f x + phi) * exp(-rate * x) + c
* ``lorentzian``           a / (1 + (2 (x - x0) / fwhm)^2) + c

In the decays x counts from the first sample x[0], so an amplitude is the
decaying part at x[0], not at x = 0.

Each fit is one Levenberg-Marquardt run (MINPACK through
``scipy.optimize.least_squares(method="lm")``, imported by the first fit so
that runs without a fit never load scipy) on data rescaled to order
unity, from a single start seeded by variable projection (Golub and
Pereyra, SIAM J. Numer. Anal. 10, 1973): the parameters that enter
nonlinearly take every value of a log grid (decay rates, each pair of rates
for the biexponential, the Lorentzian width about the extreme of the data;
the sinusoid frequency is the discrete spectrum peak), the amplitudes and
offset are solved for by linear least squares, and the candidate of least
residual is the start.  An optimizer that stops without converging raises
:class:`FitError`.  Identical inputs give bit-identical results.

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


# ---------------------------------------------------------------------------
# Seed by variable projection: the parameters that enter nonlinearly are
# scanned on a grid, and the amplitudes and offset are solved for.

# Grid points per nonlinear parameter, chosen on the holeburn and
# sign-change sweeps (CHANGES.md): a pair of rates needs a finer grid, or a
# pair bracketing the fast rate fits better than the true pair when the slow
# amplitude is below the grid's rate error.
_GRID = 16
_PAIR_GRID = 128
_PAIRS = np.array(np.triu_indices(_PAIR_GRID, 1))  # the biexponential's candidates: rates i < j
_DEPENDENT = 1e-9  # least share of a column's squared norm outside the offset and the earlier columns


def _rate_grid(u, points):
    """Rates per span on a log grid from 1 to 1/(first positive step of u).

    A step below the float resolution counts as that resolution.
    """
    steps = np.diff(u)
    return (1.0 / max(steps[steps > 0][0], np.finfo(float).eps)) ** np.linspace(0.0, 1.0, points)


def _columns_single_exponential(u, v):
    g = _rate_grid(u, _GRID)
    return np.exp(-np.outer(g, u)), np.arange(len(g))[None], lambda i, a, c: [a[0], g[i[0]], c]


def _columns_biexponential(u, v):
    g = _rate_grid(u, _PAIR_GRID)
    return np.exp(-np.outer(g, u)), _PAIRS, lambda i, a, c: [a[0], g[i[0]], a[1], g[i[1]], c]


def _columns_sinusoid_decay(u, v):
    # frequency from the discrete spectrum peak; u spans 1 in len(u) - 1 steps
    g, n = _rate_grid(u, _GRID), len(u)
    f = (1 + int(np.argmax(np.abs(np.fft.rfft(v - v.mean())[1:])))) * (n - 1) / n
    decay = np.exp(-np.outer(g, u))
    cols = np.concatenate([decay * np.cos(2.0 * np.pi * f * u), decay * np.sin(2.0 * np.pi * f * u)])
    cands = np.stack([np.arange(len(g)), np.arange(len(g)) + len(g)])
    # a cos(t + phi) = a cos(phi) cos(t) - a sin(phi) sin(t)
    return cols, cands, lambda i, a, c: [np.hypot(a[0], a[1]), f, np.arctan2(-a[1], a[0]), g[i[0]], c]


def _columns_lorentzian(u, v):
    # widths 1/g, centered on the point farthest from the median
    g, center = _rate_grid(u, _GRID), u[np.argmax(np.abs(v - np.median(v)))]
    cols = 1.0 / (1.0 + (2.0 * np.outer(g, u - center)) ** 2)
    return cols, np.arange(len(g))[None], lambda i, a, c: [a[0], center, 1.0 / g[i[0]], c]


def _seed(columns, u, v):
    """The candidate of least residual, with its amplitudes and offset solved for.

    ``columns(u, v)`` gives every candidate column, the column indices of
    each candidate (one row per column, candidates last) and the map from
    (indices, amplitudes, offset) to the parameters.  Centering drops the
    offset from the normal equations, which are eliminated column by column
    for all candidates at once; a candidate with a column nearly dependent
    on the offset or on its earlier columns is skipped.
    """
    cols, cands, params = columns(u, v)
    mean = cols.mean(axis=1)
    norms = np.sqrt(np.einsum("in,in->i", cols, cols))
    unit = (cols - mean[:, None]) / norms[:, None]  # centered, over the norm before centering
    vc = v - v.mean()
    # the normal equations, (k, k, candidates), by einsum: a threaded BLAS call costs more here
    if cands.size > len(cols):  # candidates share columns, so the full Gram is cheaper
        a = np.einsum("in,jn->ij", unit, unit).ravel()[cands[:, None] * len(cols) + cands]
    else:
        blocks = unit[cands]
        a = np.einsum("skn,tkn->stk", blocks, blocks)
    b = np.einsum("in,n->i", unit, vc)[cands]
    explained = np.zeros(cands.shape[1])
    ok = np.ones(cands.shape[1], dtype=bool)
    for t in range(len(cands)):
        ok &= a[t, t] > _DEPENDENT
        pivot = np.where(ok, a[t, t], 1.0)
        explained += b[t] ** 2 / pivot
        lower = a[t + 1 :, t] / pivot
        a[t + 1 :, t + 1 :] -= lower[:, None] * a[t, t + 1 :]
        b[t + 1 :] -= lower * b[t]
    k = int(np.argmax(np.where(ok, explained, -1.0)))
    best = cands[:, k]
    ub = unit[best]
    alpha = np.linalg.solve(ub @ ub.T, ub @ vc) / norms[best] if ok[k] else np.zeros(len(best))
    return np.array(params(best, alpha, v.mean() - mean[best] @ alpha))


_MODELS = {
    "single-exponential": (_f_single_exponential, ("amplitude", "rate", "offset"), _columns_single_exponential),
    "biexponential": (_f_biexponential, ("amp1", "rate1", "amp2", "rate2", "offset"), _columns_biexponential),
    "sinusoid-decay": (
        _f_sinusoid_decay, ("amplitude", "frequency", "phase", "decay_rate", "offset"), _columns_sinusoid_decay
    ),
    "lorentzian": (_f_lorentzian, ("amplitude", "center", "fwhm", "offset"), _columns_lorentzian),
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
    ``parameters``) to starting values and replaces the grid seed; the
    returned residual norm never exceeds the one at the start.

    Decays run from the first sample x[0], not from x = 0: the amplitudes
    of the exponential and sinusoid-decay models are their decaying parts at
    x[0].  Phases and Lorentzian centers refer to x itself.

    Exponential models report time constants ``tau`` (and
    ``tau_slow``/``tau_fast``, sorted) alongside the raw rates.  Constant
    input is degenerate for every model; it yields a zero-amplitude result
    rather than an error.  Raises :class:`FitError` for non-finite data,
    too few points, x values that are all equal, an unknown model or an
    optimizer that did not converge.
    """
    if model not in _MODELS:
        raise FitError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    fn, names, columns = _MODELS[model]
    x, y = _as_xy(trace)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError("trace contains non-finite values")
    if len(x) < 2 * len(names):
        raise FitError(f"need at least {2 * len(names)} points for {model}")
    if np.any(np.diff(x) < 0):
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]

    if not x[-1] > x[0]:
        raise FitError("trace x values are all equal")

    # rescale to order unity; parameters are transformed back afterwards
    xs = float(x[-1] - x[0])
    x0 = float(x[0])
    ys = float(np.max(np.abs(y))) or 1.0
    u = (x - x0) / xs
    v = y / ys

    def to_original(p):  # (scale, shift) of scaled parameters p
        return _param_map(names, x0, xs, ys, dict(zip(names, p)).get("frequency", 0.0) / xs)

    p0 = _seed(columns, u, v)
    if initial_guess is not None:
        scale, shift = to_original(p0)
        merged = _merge_guess(names, dict(zip(names, scale * p0 + shift)), initial_guess)
        scale, shift = _param_map(names, x0, xs, ys, merged.get("frequency", 0.0))
        p0 = (np.array([merged[name] for name in names]) - shift) / scale

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
    scale, shift = to_original(popt)
    params = dict(zip(names, (scale * popt + shift).tolist()))
    uncert = dict(zip(names, (scale * sigma).tolist()))
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


def _merge_guess(names, heuristic, guess):
    """Overlay user-supplied starting values (original units) on the heuristic."""
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


def _param_map(names, x0, xs, ys, freq):
    """``(scale, shift)`` arrays over ``names``: original = scale * scaled + shift.

    Scaled coordinates are ``(x - x0) / xs`` and ``y / ys``; ``freq`` (original
    units) shifts the phase so that it refers to x = 0.
    """
    y, inv_x = (ys, 0.0), (1.0 / xs, 0.0)
    table = dict(amplitude=y, amp1=y, amp2=y, offset=y, rate=inv_x, rate1=inv_x, rate2=inv_x, decay_rate=inv_x,
                 frequency=inv_x, phase=(1.0, -2.0 * np.pi * freq * x0), center=(xs, x0), fwhm=(xs, 0.0))
    return np.array([table[name] for name in names]).T


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
