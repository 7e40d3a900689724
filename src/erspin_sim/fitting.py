"""Deterministic least-squares fitting of trace data.

Four model families cover every trace the experiments produce:

* ``single-exponential``   a * exp(-x/tau) + c
* ``biexponential``        a1 * exp(-x/tau_slow) + a2 * exp(-x/tau_fast) + c
* ``sinusoid-decay``       a * cos(2 pi f x + phi) * exp(-rate * x) + c
* ``lorentzian``           a / (1 + (2 (x - x0) / fwhm)^2) + c

In the decays x counts from the first sample x[0], so an amplitude is the
decaying part at x[0], not at x = 0.

Each model is linear in its amplitudes and offset once at most two
parameters are fixed: the rate, both rates, the frequency and decay rate,
or the center and inverse width.  So every fit is a variable projection
(Golub and Pereyra, SIAM J. Numer. Anal. 10, 1973; O'Leary and Rust,
Comput. Optim. Appl. 54, 2013) on data rescaled to order unity: each
evaluation solves the centered normal equations of its one or two columns
in closed form (:func:`_solve`), and the search runs over the nonlinear
parameters alone.  It starts from the least residual on a log grid of rates
(each pair of rates for the biexponential; inverse widths for the
Lorentzian), every candidate going through the same closed form, a block
of them per call, with the sinusoid frequency at the discrete spectrum
peak and the Lorentzian center at the point farthest from the median.  A
Levenberg-Marquardt search refines it.  Each basis takes a leading batch
axis of parameter vectors, so a forward-difference Jacobian is one batched
evaluation, and the 1- or 2-parameter step is in closed form too.  A search
that needs more than :data:`MAX_EVALS` evaluations raises :class:`FitError`.
The engine needs numpy alone, and identical inputs give bit-identical
results.  Its sums are einsum calls, not BLAS ones, so the BLAS thread count
and kernel change no fitted value of a given trace; only the covariance's
pseudo-inverse, which the sigmas read, calls BLAS.

One-sigma uncertainties are the Gauss-Newton covariance built from a
forward-difference Jacobian of the full model at the optimum; they are zero
for an exact fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_EVALS = 1000  # residual evaluations a search may take before it counts as not converged
_STEP = np.sqrt(np.finfo(float).eps)  # forward-difference step, relative to max(|p|, 1)
_XTOL = 1e-8  # a search ends at a step below this share of |q|,
_FTOL = 1e-15  # or at one whose predicted reduction is below this share of the squared residual


class FitError(RuntimeError):
    """Raised for degenerate or insufficient fit input, or a fit that did not converge."""


@dataclass(frozen=True)
class FitResult:
    model: str
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


def _damped_cosines(q, u):
    """Cosine columns at frequency q[..., 0], one per decay rate in q[..., 1:], then the sine columns."""
    decay, phase = np.exp(-q[..., 1:, None] * u), 2.0 * np.pi * q[..., :1, None] * u
    return np.concatenate([decay * np.cos(phase), decay * np.sin(phase)], axis=-2)


def _lorentzians(q, u):
    """One column centered on q[..., 0] per inverse width in q[..., 1:], finished in place."""
    out = np.square(2.0 * q[..., 1:, None] * (u - q[..., :1, None]))
    out += 1.0
    return np.divide(1.0, out, out=out)


def _spectrum_peak(u, v):
    """The frequency of the discrete spectrum peak; u spans 1 in len(u) - 1 steps."""
    return [(1 + int(np.argmax(np.abs(np.fft.rfft(v - v.sum() / len(v))[1:])))) * (len(u) - 1) / len(u)]


# Grid points per scanned parameter, chosen on the holeburn and sign-change
# sweeps (CHANGES.md): a pair of rates needs a finer grid, or a pair
# bracketing the fast rate fits better than the true pair when the slow
# amplitude is below the grid's rate error.
_SINGLES = np.arange(16)[None]
_PAIRS = np.array(np.triu_indices(128, 1))  # the biexponential's candidates: rates i < j
_DEPENDENT = 1e-9  # least share of a column's squared norm outside the offset and the earlier columns
_MERGED = 1e-6  # a biexponential whose second column keeps less than this share fits as the single exponential
# The most a one-rate fallback's residual norm may exceed that of the merged two-rate optimum it replaces.
# On 2,260 holeburn sweep runs the 31 correct fallbacks (a negligible fast amplitude) left at most 1.55 times
# it, and the 849 more than 10% off (near-equal lifetimes: the trace is not one exponential) at least 7.6.
_FALLBACK_RATIO = 3.0
_TRIANGLE = {1: ((0, 0),), 2: ((0, 0), (0, 1), (1, 1))}  # the upper triangle of a 1 x 1 or 2 x 2 matrix
# Seed candidates solved per call.  Their arrays stay at 8 KiB, so a seed leaves glibc no heap top to trim
# and fault back in on the next one: all 8,128 biexponential pairs at once cost 222 minor faults per seed.
_BLOCK = 1024

# name: (parameter names, basis, grid indices of each candidate's scanned
# parameters, the fixed start of q, parameters from (q, amplitudes, offset),
# each over the leading axes of q (..., p) and the amplitudes (..., k))
_MODELS = {
    "single-exponential": (
        ("amplitude", "rate", "offset"), _exponentials, _SINGLES, lambda u, v: [],
        lambda q, a, c: [a[..., 0], q[..., 0], c],
    ),
    "biexponential": (
        ("amp1", "rate1", "amp2", "rate2", "offset"), _exponentials, _PAIRS, lambda u, v: [],
        lambda q, a, c: [a[..., 0], q[..., 0], a[..., 1], q[..., 1], c],
    ),
    "sinusoid-decay": (  # a cos(t + phi) = a cos(phi) cos(t) - a sin(phi) sin(t)
        ("amplitude", "frequency", "phase", "decay_rate", "offset"), _damped_cosines, _SINGLES, _spectrum_peak,
        lambda q, a, c: [np.hypot(a[..., 0], a[..., 1]), q[..., 0], np.arctan2(-a[..., 1], a[..., 0]), q[..., 1], c],
    ),
    "lorentzian": (
        ("amplitude", "center", "fwhm", "offset"), _lorentzians, _SINGLES,
        lambda u, v: [u[np.argmax(np.abs(v - np.median(v)))]],
        lambda q, a, c: [a[..., 0], q[..., 0], 1.0 / q[..., 1], c],
    ),
}

MODEL_NAMES = tuple(_MODELS)
_LINEAR = {"amplitude", "amp1", "amp2", "offset"}  # the parameters that variable projection solves for


def _dot(a, b):
    """Sum of ``a * b`` over the last axis, by einsum: no BLAS call, so no thread count or kernel moves a bit."""
    return np.einsum("...n,...n->...", a, b)


def _solve(g, b, sq, dependent):
    """Least squares on one or two centered columns and the offset, in closed form over any trailing axes.

    ``g`` is the upper triangle of the columns' centered Gram matrix, (00,)
    or (00, 01, 11) as :data:`_TRIANGLE` orders it; ``b`` holds their
    products with the centered data and ``sq`` their squared norms before
    centering, one entry per column.  Eliminating in column order leaves
    each column a pivot, the part of its squared norm outside the offset and
    the earlier column.  A column whose pivot is at most ``dependent`` of
    ``sq`` is dropped, with amplitude zero, so a pair of equal rates is the
    single exponential.  Returns the amplitudes (k, ...), the squared norm
    of the data they explain, and whether every column was kept.
    """
    keep = g[0] > dependent * sq[0]
    pivot = np.where(keep, g[0], np.inf)[()]  # a dropped column's amplitude is zero; [()] keeps a scalar one
    if len(g) == 1:
        a0 = b[0] / pivot
        return np.array([a0]), a0 * b[0], keep
    lower = g[1] / pivot
    pivot1 = g[2] - lower * g[1]
    keep1 = pivot1 > dependent * sq[1]
    a1 = (b[1] - lower * b[0]) / np.where(keep1, pivot1, np.inf)[()]
    a0 = (b[0] - g[1] * a1) / pivot
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
        gram = [centered_sq[co[0]]]
        if len(co) == 2:
            gram += [full[co[0], co[1]] if shared else _dot(cols[co[0]], cols[co[1]]), centered_sq[co[1]]]
        _, explained, ok = _solve(gram, b[co], sq[co], _DEPENDENT)
        scores.append(np.where(ok, explained, -1.0))
    return np.concatenate([fixed, g[cands[:, int(np.argmax(np.concatenate(scores)))]]])


def _project(cols, v, dependent=_DEPENDENT):
    """Amplitudes (k, ...) and offset of the least-squares fit of ``v`` by ``cols`` and a constant, and its residual.

    ``cols`` (..., k, n) holds one or two columns, after any leading axes;
    :func:`_solve` states which column it drops at ``dependent``.
    """
    mean, v_mean = cols.sum(axis=-1) / len(v), v.sum() / len(v)
    centered, vc = cols - mean[..., None], v - v_mean
    gram, b = np.einsum("...in,...jn->ij...", centered, centered), np.einsum("...in,n->i...", centered, vc)
    sq = np.einsum("...in,...in->i...", cols, cols)
    alpha = _solve([gram[s, t] for s, t in _TRIANGLE[len(b)]], b, sq, dependent)[0]
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
    after a step below ``_XTOL`` of |q|, or one whose predicted reduction
    is below ``_FTOL`` of the squared residual; such a step is still taken
    where it lowers the residual.
    """
    r, evals, damping = residual(q), 1, 1e-3
    while True:
        jac = _jacobian(residual, q, r)
        evals += len(q)
        a, grad, rr = np.einsum("in,jn->ij", jac, jac), np.einsum("in,n->i", jac, r), _dot(r, r)
        diag = a.diagonal()
        scale = np.diag(np.maximum(diag, np.finfo(float).eps * np.max(diag)))
        while True:
            if evals >= MAX_EVALS:
                raise FitError(f"{model} fit did not converge: the limit of {MAX_EVALS} evaluations was reached")
            if not grad.any():  # no parameter moves the residual
                return q, r
            # the damped system is positive definite, so no parameter is dropped
            m = a + damping * scale
            step = -_solve([m[s, t] for s, t in _TRIANGLE[len(q)]], grad, diag, 0.0)[0]
            # the reduction of |r|^2 the linear model predicts
            predicted = -_dot(2.0 * grad + np.einsum("ij,j->i", a, step), step)
            last = _dot(step, step) <= _XTOL**2 * _dot(q, q) or not predicted > _FTOL * rr
            trial = residual(q + step)
            evals += 1
            if _dot(trial, trial) < rr:
                break
            if last:
                return q, r
            damping *= 10.0
        q, r, damping = q + step, trial, max(damping / 10.0, 1e-12)
        if last:
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

    Decays run from the first sample x[0], not from x = 0: the amplitudes
    of the exponential and sinusoid-decay models are their decaying parts at
    x[0].  Phases and Lorentzian centers refer to x itself.

    Exponential models report time constants ``tau`` (and
    ``tau_slow``/``tau_fast``, sorted) alongside the raw rates, which keep
    their signs; a rate <= 0, a trace that does not decay, has tau = inf.
    Constant input is degenerate for every model; it yields zero
    amplitudes and the offset, with every other parameter and its sigma nan
    (so tau is inf), rather than an error.  Raises :class:`FitError`
    for non-finite data, too few points, x values that are all equal, an
    unknown model, a search that did not converge, or a biexponential whose
    rates merge on a trace that one rate fits far worse than the merged pair.
    """
    if model not in _MODELS:
        raise FitError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    names, basis, cands, fixed, named = _MODELS[model]
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
        q, r = _levenberg_marquardt(residual, _seed(basis, cands, fixed(u, v), u, v), model)
        if model == "biexponential" and _project(basis(q, u), v, _MERGED)[0][1] == 0.0:
            # the rates merged, where two columns tend to their sum and derivative with amplitudes
            # that grow without bound: fit the single exponential, as one rate taken twice
            one, r_one = _levenberg_marquardt(lambda s: residual(np.repeat(s, 2, axis=-1)), q[:1], model)
            ratio = np.sqrt(_dot(r_one, r_one) / _dot(r, r))
            if ratio > _FALLBACK_RATIO:  # nearly equal rates, which one rate does not fit
                raise FitError(
                    f"{model} fit found no two distinct rates, and one rate leaves {ratio:.3g} times the "
                    "residual of the merged pair"
                )
            q, r = np.repeat(one, 2), r_one
        alpha, offset, _ = _project(basis(q, u), v)

    # Gauss-Newton covariance of (q, amplitudes, offset), carried to the named parameters
    theta, k = np.concatenate([q, alpha, [offset]]), len(q)

    def model_of(t):
        return np.einsum("...i,...in->...n", t[..., k:-1], basis(t[..., :k], u)) + t[..., -1:]

    def named_of(t):
        return np.stack(named(t[..., :k], t[..., k:-1], t[..., -1]), axis=-1)

    jac, rr = _jacobian(model_of, theta, v - r), _dot(r, r)
    cov = rr / max(len(u) - len(names), 1) * np.linalg.pinv(np.einsum("in,jn->ij", jac, jac))
    p = named_of(theta)
    to_named = _jacobian(named_of, theta, p)
    popt, sigma = _canonical(model, p, np.sqrt(np.clip(np.einsum("ip,ij,jp->p", to_named, cov, to_named), 0, None)))
    scale, shift = _param_map(names, x0, xs, ys, dict(zip(names, popt)).get("frequency", 0.0) / xs)
    params = dict(zip(names, (scale * popt + shift).tolist()))
    uncert = dict(zip(names, (scale * sigma).tolist()))
    if not np.ptp(y):  # constant input fixes no nonlinear parameter
        for name in set(names) - _LINEAR:
            params[name] = uncert[name] = np.nan
    _add_time_constants(model, params, uncert)
    return FitResult(model=model, parameters=params, uncertainties=uncert, residual_norm=float(np.sqrt(rr)) * ys)


def _canonical(model, p, sigma):
    """Fold the symmetries: frequency and Lorentzian width non-negative, biexponential sorted slow-first.

    Rates keep their signs, since the bases take them signed: a negative
    rate is a growing trace.  ``sigma`` (uncertainties of ``p``) is
    reordered along with ``p``.
    """
    p = np.array(p, dtype=float)
    if model == "sinusoid-decay":
        if p[1] < 0:  # cos(-2 pi f u + phi) = cos(2 pi f u - phi)
            p[1], p[2] = -p[1], -p[2]
        p[2] = float(np.remainder(p[2] + np.pi, 2.0 * np.pi) - np.pi)
    elif model == "biexponential":
        if p[1] > p[3]:  # rate1 must be the slow component
            order = [2, 3, 0, 1, 4]
            p, sigma = p[order], sigma[order]
    elif model == "lorentzian":
        p[2] = abs(p[2])
    return p, sigma


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

