"""Deterministic least-squares fitting of trace data.

Four model families cover every trace the experiments produce:

* ``single-exponential``   a * exp(-x/tau) + c
* ``biexponential``        a1 * exp(-x/tau_slow) + a2 * exp(-x/tau_fast) + c
* ``sinusoid-decay``       a * cos(2 pi f x + phi) * exp(-rate * x) + c
* ``lorentzian``           a / (1 + (2 (x - x0) / fwhm)^2) + c

In the decays x counts from the first sample x[0], so an amplitude is the
decaying part at x[0], not at x = 0.

Each model is linear in its amplitudes and offset once at most two
parameters are fixed: the rate, the mean and product of the two rates, the
frequency and decay rate, or the center and inverse width.  So every fit is
a variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 1973;
O'Leary and Rust, Comput. Optim. Appl. 54, 2013) on data rescaled to order
unity: each evaluation solves the centered normal equations of its one or
two columns in closed form (:func:`_solve`), and the search runs over the
nonlinear parameters alone.  It starts from the least residual on a log
grid of rates (each pair of rates for the biexponential; inverse widths for
the Lorentzian), every candidate going through the same closed form, a
block of them per call, with the sinusoid frequency at the discrete
spectrum peak and the Lorentzian center at the point farthest from the
mean of the two end samples, which stays on the peak when most samples
lie near it.  A Levenberg-Marquardt search refines it, and each model's
own map from its nonlinear parameters and amplitudes to its named
parameters folds its symmetries: a frequency and a Lorentzian width are
reported non-negative, the phase at the first sample in [-pi, pi).  The biexponential's
columns are its two exponentials' mean and first divided difference,
e^(-mu) cosh(du) and e^(-mu) sinh(du)/d for rates m -+ d, which stay two
columns as the rates merge (Hochbruck and Ostermann, Acta Numerica 19,
2010, for phi1 and the divided differences of the exponential); the seed's
pair of rates maps to their mean and product, and one search covers
distinct, merged and nearly merged rates alike.  Each basis takes a leading
batch axis of parameter vectors, so a forward-difference Jacobian is one
batched evaluation, and the 1- or 2-parameter step is in closed form too.
A search that needs more than :data:`MAX_EVALS` evaluations raises
:class:`FitError`.  The engine needs numpy alone, and identical inputs give
bit-identical results.  Its sums are einsum calls and its solves closed
forms: a fit calls no BLAS routine, so the BLAS thread count and kernel
change no fitted value or sigma of a given trace.

One-sigma uncertainties are given for the parameters the nonlinear ones q
fix: rates and time constants, frequency and decay rate, center and width.
Their Gauss-Newton covariance is the inverse of J^T J for the Jacobian J of
the projected residual at the optimum, the search's own forward
difference; to first order in the residual it is the q block of the full
model's covariance (Golub and Pereyra).  Amplitudes, offset and phase get
none.  A sigma is a statistic of the fit to the trace as given, zero for
an exact fit: it measures neither a grid's discretization nor the model's
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_EVALS = 1000  # residual evaluations a search may take before it counts as not converged
_STEP = np.sqrt(np.finfo(float).eps)  # forward-difference step, relative to max(|p|, 1)
_XTOL = 1e-8  # a search ends at a step below this share of max(|q_i|, 1) in every parameter,
_FTOL = 1e-15  # or at one whose predicted reduction is below this share of the squared residual


class FitError(RuntimeError):
    """Raised for degenerate or insufficient fit input, or a fit that did not converge."""


@dataclass(frozen=True)
class FitResult:
    """A fit's named parameters, the sigmas of those that its nonlinear parameters fix, and its residual norm."""

    parameters: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float


# ---------------------------------------------------------------------------
# Bases: the columns (..., k, n) that a model's amplitudes multiply, as
# functions of its nonlinear parameters q (..., p), on rescaled coordinates
# (x in [0, 1], y of order 1).  Leading axes of q are a batch of parameter
# vectors; the last takes any number of entries, which is how the seed
# builds every candidate's columns in one call.  Rates enter signed, so that
# an undamped trace sits inside the search, and are reported signed.


def _exponentials(q, u):
    """One decay column per rate in ``q``."""
    return np.exp(-q[..., None] * u)


def _mean_and_product(q, u):
    """Two columns spanning e^(-(m -+ d)u), d = sqrt(m^2 - p), for q = (m, p): two rates' mean and product.

    They are e^(-mu) cosh(du) and e^(-mu) sinh(du)/d, the mean and the
    first divided difference of the pair, entire in p: through the merge
    d = 0 they tend to e^(-mu) and u e^(-mu), and past it, p > m^2, they are
    e^(-mu) cos(|d|u) and e^(-mu) sin(|d|u)/|d|.  One complex path gives
    every case: with e = e^(-(m + d)u) the second column is e u phi1(2du),
    phi1(z) = expm1(z)/z, and the first e + d times it.  d is taken with
    Re d <= 0, so that phi1 stays bounded.
    """
    m = q[..., :1, None]
    d = -np.sqrt(m**2 - q[..., 1:, None] + 0j)
    e = np.exp(-(m + d) * u)
    s = e * np.where(d == 0, u, np.expm1(2.0 * d * u) / np.where(d == 0, 1.0, 2.0 * d))
    return np.concatenate([(e + d * s).real, s.real], axis=-2)


def _rates_of(q, a, c):
    """amp1, rate1 (the slower), amp2, rate2 and offset from the amplitudes ``a`` of :func:`_mean_and_product`.

    The rates are m -+ d.  Where they merge or oscillate, p >= m^2, both
    are m and the amplitudes, which the pair no longer separates, nan.
    """
    m, d = q[..., 0], np.sqrt(np.maximum(q[..., 0] ** 2 - q[..., 1], 0.0))
    split = np.where(d > 0, a[..., 1] / np.where(d > 0, d, 1.0), np.nan)  # sinh(du)/d splits into +-e^(-+du)/2d
    return [(a[..., 0] + split) / 2.0, m - d, (a[..., 0] - split) / 2.0, m + d, c]


def _damped_cosines(q, u):
    """Cosine columns at frequency q[..., 0], one per decay rate in q[..., 1:], then the sine columns."""
    decay, phase = np.exp(-q[..., 1:, None] * u), 2.0 * np.pi * q[..., :1, None] * u
    return np.concatenate([decay * np.cos(phase), decay * np.sin(phase)], axis=-2)


def _lorentzians(q, u):
    """One column centered on q[..., 0] per inverse width in q[..., 1:], finished in place."""
    out = np.square(2.0 * q[..., 1:, None] * (u - q[..., :1, None]))
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sinusoid_of(q, a, c):
    """amplitude, frequency, phase, decay rate and offset from the amplitudes ``a`` of :func:`_damped_cosines`.

    a cos(t + phi) = a cos(phi) cos(t) - a sin(phi) sin(t), and
    cos(-2 pi f u + phi) = cos(2 pi f u - phi): a negative frequency is
    reported as |f| with the phase negated, and the phase turned into
    [-pi, pi).
    """
    phase = np.arctan2(-a[..., 1], a[..., 0])
    phase = np.remainder(np.where(q[..., 0] < 0, -phase, phase) + np.pi, 2.0 * np.pi) - np.pi
    return [np.hypot(a[..., 0], a[..., 1]), np.abs(q[..., 0]), phase, q[..., 1], c]


def _spectrum_peak(u, v):
    """The frequency of the discrete spectrum peak; u spans 1 in len(u) - 1 steps."""
    return [(1 + int(np.argmax(np.abs(np.fft.rfft(v - v.sum() / len(v))[1:])))) * (len(u) - 1) / len(u)]


def _pair_seed(u, v):
    """The mean and product of the grid's best pair of rates, whose exponentials span the same columns."""
    r = _seed(_exponentials, _PAIRS, [], u, v)
    return np.array([(r[0] + r[1]) / 2.0, r[0] * r[1]])


# Grid points per scanned parameter, chosen on the holeburn and sign-change
# sweeps (CHANGES.md): a pair of rates needs a finer grid, or a pair
# bracketing the fast rate fits better than the true pair when the slow
# amplitude is below the grid's rate error.
_SINGLES = np.arange(16)[None]
_PAIRS = np.array(np.triu_indices(128, 1))  # the biexponential's candidates: rates i < j
_DEPENDENT = 1e-9  # least share of a column's squared norm outside the offset and the earlier columns
# Seed candidates solved per call.  Their arrays stay at 8 KiB, so a seed leaves glibc no heap top to trim
# and fault back in on the next one: all 8,128 biexponential pairs at once cost 222 minor faults per seed.
_BLOCK = 1024

# name: (parameter names, basis, the search's start q from (u, v),
# parameters from (q, amplitudes, offset), each over the leading axes of
# q (..., p) and the amplitudes (..., k)).  The parameters come with the
# model's symmetries folded: frequency and Lorentzian width non-negative.
# Rates keep their signs, since the bases take them signed: a negative rate
# is a growing trace.
_MODELS = {
    "single-exponential": (
        ("amplitude", "rate", "offset"), _exponentials, lambda u, v: _seed(_exponentials, _SINGLES, [], u, v),
        lambda q, a, c: [a[..., 0], q[..., 0], c],
    ),
    "biexponential": (("amp1", "rate1", "amp2", "rate2", "offset"), _mean_and_product, _pair_seed, _rates_of),
    "sinusoid-decay": (
        ("amplitude", "frequency", "phase", "decay_rate", "offset"), _damped_cosines,
        lambda u, v: _seed(_damped_cosines, _SINGLES, _spectrum_peak(u, v), u, v), _sinusoid_of,
    ),
    "lorentzian": (
        ("amplitude", "center", "fwhm", "offset"), _lorentzians,
        lambda u, v: _seed(_lorentzians, _SINGLES, [u[np.argmax(np.abs(v - 0.5 * (v[0] + v[-1])))]], u, v),
        lambda q, a, c: [a[..., 0], q[..., 0], np.abs(1.0 / q[..., 1]), c],
    ),
}

MODEL_NAMES = tuple(_MODELS)
_LINEAR = {"amplitude", "amp1", "amp2", "offset"}  # the parameters that variable projection solves for
_TAUS = {"rate": "tau", "rate1": "tau_slow", "rate2": "tau_fast"}  # the time constant reported beside each rate


def _dot(a, b):
    """Sum of ``a * b`` over the last axis, by einsum: no BLAS call, so no thread count or kernel moves a bit."""
    return np.einsum("...n,...n->...", a, b)


def _solve(g, b, sq, dependent):
    """Least squares on one or two centered columns and the offset, in closed form over any trailing axes.

    ``g`` is the columns' centered Gram matrix, 1 x 1 or 2 x 2, of which
    ``g[0][0]``, ``g[0][1]`` and ``g[1][1]`` are read; ``b`` holds their
    products with the centered data and ``sq`` their squared norms before
    centering, one entry per column.  Eliminating in column order leaves
    each column a pivot, the part of its squared norm outside the offset and
    the earlier column.  A column whose pivot is at most ``dependent`` of
    ``sq`` is dropped, with amplitude zero, so a pair of equal rates is the
    single exponential.  Returns the amplitudes (k, ...), the squared norm
    of the data they explain, and whether every column was kept.
    """
    keep = g[0][0] > dependent * sq[0]
    pivot = np.where(keep, g[0][0], np.inf)[()]  # a dropped column's amplitude is zero; [()] keeps a scalar one
    if len(g) == 1:
        a0 = b[0] / pivot
        return np.array([a0]), a0 * b[0], keep
    lower = g[0][1] / pivot
    pivot1 = g[1][1] - lower * g[0][1]
    keep1 = pivot1 > dependent * sq[1]
    a1 = (b[1] - lower * b[0]) / np.where(keep1, pivot1, np.inf)[()]
    a0 = (b[0] - g[0][1] * a1) / pivot
    return np.array([a0, a1]), a0 * b[0] + a1 * b[1], keep & keep1


def _rate_grid(u, points):
    """Rates per span on a log grid from 1 to 1/(first positive step of u).

    A step below the float resolution counts as that resolution.
    """
    steps = np.diff(u)
    return (1.0 / max(steps[steps > 0][0], np.finfo(float).eps)) ** np.linspace(0.0, 1.0, points)


def _seed(basis, cands, fixed, u, v):
    """The nonlinear parameters of the grid candidate of least residual.

    A candidate's parameters are ``fixed`` followed by the grid values that
    one column of ``cands`` indexes.  The columns of every grid value are
    built and centered once, and :func:`_solve` takes the normal equations
    of :data:`_BLOCK` candidates per call; a candidate with a column it
    drops is skipped.
    """
    g = _rate_grid(u, cands.max() + 1)
    cols = basis(np.concatenate([fixed, g]), u)
    # each grid value gives len(cols) // len(g) columns: a cosine and a sine for the damped cosines
    cols_of = (cands + len(g) * np.arange(len(cols) // len(g))[:, None, None]).reshape(-1, cands.shape[1])
    sq = _dot(cols, cols)
    cols -= (cols.sum(axis=1) / len(u))[:, None]
    centered_sq, b = _dot(cols, cols), np.einsum("in,n->i", cols, v - v.sum() / len(v))
    if shared := cols_of.size > len(cols):  # candidates share columns, so the full Gram is cheaper
        # by einsum over the transposed columns: a BLAS call here is 4-5 times faster, but its threads
        # spin, which nearly doubled fit-bound's CPU time on a 2-vCPU host
        ct = cols.T.copy()
        full = np.einsum("ni,nj->ij", ct, ct)
    scores = []
    for co in np.split(cols_of, range(_BLOCK, cols_of.shape[1], _BLOCK), axis=1):
        gram = [[centered_sq[co[0]]]]
        if len(co) == 2:
            cross = full[co[0], co[1]] if shared else _dot(cols[co[0]], cols[co[1]])
            gram = [[gram[0][0], cross], [cross, centered_sq[co[1]]]]
        _, explained, ok = _solve(gram, b[co], sq[co], _DEPENDENT)
        scores.append(np.where(ok, explained, -1.0))
    return np.concatenate([fixed, g[cands[:, int(np.argmax(np.concatenate(scores)))]]])


def _project(cols, v):
    """Amplitudes (k, ...) and offset of the least-squares fit of ``v`` by ``cols`` and a constant, and its residual.

    ``cols`` (..., k, n) holds one or two columns, after any leading axes;
    :func:`_solve` states which column it drops at :data:`_DEPENDENT`.
    """
    mean, v_mean = cols.sum(axis=-1) / len(v), v.sum() / len(v)
    centered, vc = cols - mean[..., None], v - v_mean
    gram, b = np.einsum("...in,...jn->ij...", centered, centered), np.einsum("...in,n->i...", centered, vc)
    sq = np.einsum("...in,...in->i...", cols, cols)
    alpha = _solve(gram, b, sq, _DEPENDENT)[0]
    return alpha, v_mean - np.einsum("i...,...i->...", alpha, mean), vc - np.einsum("i...,...in->...n", alpha, centered)


def _jacobian(f, p, f0):
    """Forward-difference Jacobian of ``f`` at ``p``, one row per parameter; ``f0`` is ``f(p)``.

    ``f`` takes the displaced parameter vectors as one batch.
    """
    h = (p + _STEP * np.maximum(np.abs(p), 1.0)) - p  # steps the sums represent exactly
    return (f(p + np.diag(h)) - f0) / h[:, None]


def _levenberg_marquardt(residual, q, model):
    """Minimize the squared norm of ``residual(q)`` from ``q``; return the optimum and its residual.

    The damping scales the diagonal of J^T J (Marquardt).  The search ends
    at a step whose predicted reduction is below ``_FTOL`` of the squared
    residual, or that is below ``_XTOL`` of max(|q_i|, 1) in every
    parameter; such a step is still taken where it lowers the residual.
    For a step it takes, the size that counts is the undamped (Gauss-Newton)
    step's: along a narrow valley the damping alone keeps steps that small,
    as near merged biexponential rates.
    """
    r, evals, damping = residual(q), 1, 1e-3
    while True:
        jac = _jacobian(residual, q, r)
        evals += len(q)
        a, grad, rr = np.einsum("in,jn->ij", jac, jac), np.einsum("in,n->i", jac, r), _dot(r, r)
        diag = a.diagonal()
        scale = np.diag(np.maximum(diag, np.finfo(float).eps * np.max(diag)))
        tol = _XTOL * np.maximum(np.abs(q), 1.0)
        while True:
            if evals >= MAX_EVALS:
                raise FitError(f"{model} fit did not converge: the limit of {MAX_EVALS} evaluations was reached")
            if not grad.any():  # no parameter moves the residual
                return q, r
            # the damped system is positive definite, so no parameter is dropped
            m = a + damping * scale
            step = -_solve(m, grad, diag, 0.0)[0]
            # the reduction of |r|^2 the linear model predicts
            flat = not -_dot(2.0 * grad + np.einsum("ij,j->i", a, step), step) > _FTOL * rr
            trial = residual(q + step)
            evals += 1
            if _dot(trial, trial) < rr:
                break
            if flat or np.all(np.abs(step) <= tol):
                return q, r
            damping *= 10.0
        q, r, damping = q + step, trial, max(damping / 10.0, 1e-12)
        if flat or np.all(np.abs(_solve(a, grad, diag, 0.0)[0]) <= tol):
            return q, r


def _as_xy(trace):
    if isinstance(trace, tuple) and len(trace) == 2:
        x = np.asarray(trace[0], dtype=float)
        y = np.asarray(trace[1], dtype=float)
        if x.shape == y.shape and x.ndim == 1:
            return x.copy(), y.copy()
    raise FitError("trace must be a tuple (x, y) of equal-length 1-d arrays")


def fit(trace, model: str) -> FitResult:
    """Least-squares fit of ``trace`` with the named model.

    ``trace`` is a tuple ``(x, y)`` of equal-length arrays with at least
    twice as many points as model parameters.

    ``uncertainties`` holds one-sigma values for the rates and time
    constants, the frequency and decay rate, or the center and width: the
    inverse of J^T J for the Jacobian J of the projected residual, scaled
    by the residual variance and carried to the named parameters with the
    amplitudes held fixed.  Amplitudes, offset and phase have no sigma.

    Decays run from the first sample x[0], not from x = 0: the amplitudes
    of the exponential and sinusoid-decay models are their decaying parts at
    x[0].  Phases and Lorentzian centers refer to x itself.

    Each model's map to its named parameters folds its own symmetries:
    the sinusoid-decay reports |f|, with its phase at x[0] negated for a
    negative f and turned into [-pi, pi) before it is carried to x = 0,
    and the Lorentzian |fwhm|.  Rates keep their signs.  Exponential
    models report time constants ``tau`` (and ``tau_slow``/``tau_fast``,
    sorted) alongside the raw rates, from one rate-to-tau table; a rate
    <= 0, a trace that does not decay, has tau = inf.

    The biexponential is searched over the mean m and product p of its
    rates, rate1 = m - d <= rate2 = m + d with d = sqrt(m^2 - p), so rates
    that merge need no other search.  As they merge amp1 and amp2 grow
    apart without bound; at d = 0 the model is (a + b t) e^(-m t) + c with
    t = x - x[0], and both rates are m, with finite sigmas, while amp1 and
    amp2 are nan.  A trace that a damped oscillation, e^(-m t) times a
    cosine and a sine, fits better than any two real rates ends at p > m^2
    and is reported the same way: both rates m, the envelope's, and nan
    amplitudes.

    Constant input is degenerate for every model; it yields zero
    amplitudes and the offset, with every other parameter and every sigma
    nan (so tau and its sigma are inf), rather than an error.  Raises
    :class:`FitError` for non-finite data, too few points, x values that are
    all equal, an unknown model, or a search that did not converge.
    """
    if model not in _MODELS:
        raise FitError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    names, basis, seed, named = _MODELS[model]
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

    def residual(q):
        return _project(basis(q, u), v)[2]

    with np.errstate(all="ignore"):  # a step into overflow or 0/0 is not taken
        q, r = _levenberg_marquardt(residual, seed(u, v), model)
        alpha, offset, _ = _project(basis(q, u), v)
        jac = _jacobian(residual, q, r)

    # Gauss-Newton covariance of q, the inverse of J^T J for the Jacobian J of the projected residual, as the
    # search's step solves it: the full model's q block to first order in the residual (Golub and Pereyra),
    # carried to the named parameters with the amplitudes fixed
    a, rr, k = np.einsum("in,jn->ij", jac, jac), _dot(r, r), len(q)
    cov = rr / max(len(u) - len(names), 1) * _solve(a, np.eye(k), a.diagonal(), 0.0)[0]

    def named_of(t):
        return np.stack(np.broadcast_arrays(*named(t, alpha, offset)), axis=-1)

    popt = named_of(q)
    to_named = _jacobian(named_of, q, popt)
    sigma = np.sqrt(np.clip(np.einsum("ip,ij,jp->p", to_named, cov, to_named), 0, None))
    scale, shift = _param_map(names, x0, xs, ys, dict(zip(names, popt)).get("frequency", 0.0) / xs)
    params = dict(zip(names, (scale * popt + shift).tolist()))
    uncert = {name: s for name, s in zip(names, (scale * sigma).tolist()) if name not in _LINEAR | {"phase"}}
    if not np.ptp(y):  # constant input fixes no nonlinear parameter
        for name in set(names) - _LINEAR:
            params[name] = np.nan
        uncert = dict.fromkeys(uncert, np.nan)
    _add_time_constants(params, uncert)
    return FitResult(parameters=params, uncertainties=uncert, residual_norm=float(np.sqrt(rr)) * ys)


def _param_map(names, x0, xs, ys, freq):
    """``(scale, shift)`` arrays over ``names``: original = scale * scaled + shift.

    Scaled coordinates are ``(x - x0) / xs`` and ``y / ys``; ``freq`` (original
    units) shifts the phase so that it refers to x = 0.
    """
    y, inv_x = (ys, 0.0), (1.0 / xs, 0.0)
    table = dict(amplitude=y, amp1=y, amp2=y, offset=y, rate=inv_x, rate1=inv_x, rate2=inv_x, decay_rate=inv_x,
                 frequency=inv_x, phase=(1.0, -2.0 * np.pi * freq * x0), center=(xs, x0), fwhm=(xs, 0.0))
    return np.array([table[name] for name in names]).T


def _add_time_constants(params, uncert):
    """Add tau = 1/rate and its sigma beside each rate of :data:`_TAUS`; a rate <= 0 has tau = inf."""
    for rate_key, tau_key in _TAUS.items():
        if rate_key in params:
            r, sr = params[rate_key], uncert[rate_key]
            params[tau_key] = 1.0 / r if r > 0 else np.inf
            uncert[tau_key] = sr / r**2 if r > 0 and r**2 > 0 else np.inf  # r**2 underflows below ~1e-154
