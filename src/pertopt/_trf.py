"""Bounded Trust Region Reflective least squares for small dense fits.

A port of the bounded branch of scipy 1.17's ``least_squares`` with
``method="trf"`` (``scipy/optimize/_lsq/trf.py`` and the helpers it
calls from ``common.py``): the algorithm of Branch, Coleman & Li, SIAM
J. Sci. Comput. 21, 1-23 (1999).  Only what ``least_squares`` runs for a
dense Jacobian under finite bounds with its defaults is kept: the exact
(SVD) trust-region solver, linear loss, unit variable scale and
``ftol = xtol = gtol = 1e-8``.  Every floating-point operation happens in
scipy's order on the same values, so the search visits the same points
and stops at the same bits.  What is gone is the per-call machinery:
``VectorFunction``'s caching and copies, and ``scipy.linalg.svd``'s
batching wrapper and workspace query on every iteration.  LAPACK's
``gesdd`` is called directly, with the workspace size
``scipy.linalg.svd`` passes, queried once per search.
"""

from __future__ import annotations

from math import copysign
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

_TOL = 1e-8  # least_squares' default ftol, xtol and gtol
_EPS = np.finfo(float).eps
_GESDD, _GESDD_LWORK = get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), (np.empty((1, 1)),), ilp64="preferred"
)


def _norm(x):
    """``numpy.linalg.norm`` of a 1-D float64 array, by its own formula."""
    return np.sqrt(x.dot(x))


class TRFResult(NamedTuple):
    """The ``least_squares`` result fields the decay fit reads.

    ``status`` is scipy's: 0 when ``max_nfev`` ran out, 1 (gtol), 2
    (ftol), 3 (xtol) or 4 (ftol and xtol) on convergence.
    """

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    status: int


def trf_bounds(fun, jac, x0, lb, ub, max_nfev) -> TRFResult:
    """Minimize ``0.5 * |fun(x)|^2`` over ``lb <= x <= ub`` from ``x0``.

    ``x0`` must lie strictly inside the finite bounds (``least_squares``
    nudges it inward first; a strictly interior start is left alone).
    ``jac(x)`` returns the dense ``(m, n)`` Jacobian of ``fun`` at ``x``.
    """
    x = x0.copy()
    f = fun(x)
    if not np.isfinite(f).all():
        raise ValueError("Residuals are not finite in the initial point.")
    f_true = f.copy()
    nfev = 1
    J = jac(x)
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    # make_strictly_feasible(..., rstep=0): a point on or past a bound
    # moves to the nearest float inside it; every other point stays
    inner_lb = np.nextafter(lb, ub)
    inner_ub = np.nextafter(ub, lb)

    v, dv = _scaling_vector(x, g, lb, ub)
    Delta = _norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    # the lower block is diagonal; only its diagonal is ever written
    diag_augmented = J_augmented[m:].reshape(-1)[:: n + 1]
    alpha = 0.0  # Levenberg-Marquardt parameter
    lwork = _gesdd_lwork(m + n, n)
    termination_status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = np.abs(g * v).max()  # numpy's infinity norm
        if g_norm < _TOL:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break

        # "hat" space: x = d * x_h, with the Coleman-Li diagonal term
        d = v**0.5
        diag_h = g * dv
        g_h = d * g

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # a view
        diag_augmented[:] = diag_h**0.5
        U, s, V = _svd(J_augmented, lwork)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta
            )
            x_new = np.minimum(np.maximum(x + step, inner_lb), inner_ub)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta,
            )
            termination_status = _check_termination(
                actual_reduction, cost, _norm(step), _norm(x), ratio
            )
            if termination_status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            f_true = f.copy()
            cost = cost_new
            J = jac(x)
            g = J.T.dot(f)

    if termination_status is None:
        termination_status = 0
    return TRFResult(x=x, cost=cost, fun=f_true, jac=J, status=termination_status)


def _gesdd_lwork(m: int, n: int) -> int:
    """The workspace size ``scipy.linalg.svd`` passes for an economy SVD."""
    work, info = _GESDD_LWORK(m, n, compute_uv=True, full_matrices=False)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return int(work.real)


def _svd(a: np.ndarray, lwork: int):
    """``scipy.linalg.svd(a, full_matrices=False)`` for a float64 matrix."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    u, s, vt, info = _GESDD(
        a, compute_uv=True, lwork=lwork, full_matrices=False, overwrite_a=False
    )
    if info > 0:
        raise LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector ``v`` and its derivative ``dv``.

    Distance to the bound the anti-gradient points at, 1 where the
    gradient is zero (both bounds are finite here).
    """
    # up / down: the anti-gradient points at the upper / lower bound
    up, down = g < 0, g > 0
    v = np.where(down, x - lb, np.where(up, ub - x, 1.0))
    dv = np.where(down, 1.0, np.where(up, -1.0, 0.0))
    return v, dv


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """More's trust-region solution from one SVD of the Jacobian.

    Returns the step and the Levenberg-Marquardt parameter ``alpha``
    with ``(J^T J + alpha I) p = -J^T f``; ``rtol = 0.01`` and at most 10
    root-finding iterations, as scipy.
    """

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = _norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -(suf**2 / denom**3).sum() / p_norm
        return phi, phi_prime

    suf = s * uf
    if m >= n:
        threshold = _EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0

    alpha_upper = _norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # rescale onto the trust-region boundary, so p cannot lie outside it
    p *= Delta / _norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """Best of the trust-region, reflected and Cauchy steps.

    Returns the step in the original and the hat space and the predicted
    cost reduction.
    """
    if ((x + p >= lb) & (x + p <= ub)).all():
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # reflected direction
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction leaves first the box or the trust region
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    # step-size range along the reflected direction, keeping strict
    # feasibility
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # make p_h strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _step_size_to_bound(x, s, lb, ub):
    """Smallest ``t >= 0`` putting ``x + s t`` on a bound, and which hit.

    ``hits`` is -1 / 1 where the lower / upper bound is reached, else 0.
    """
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum(
            (lb - x)[non_zero] / s_non_zero, (ub - x)[non_zero] / s_non_zero
        )
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _intersect_trust_region(x, s, Delta):
    """Roots ``t`` of ``|x + s t| = Delta``, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)  # root of a quarter of the discriminant
    # avoids loss of significance ("Numerical Recipes")
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of ``t -> q(s0 + s t)`` for the model quadratic ``q``.

    ``q(y) = 0.5 y^T (J^T J + diag) y + g^T y``; returns ``(a, b)`` of
    ``a t^2 + b t``, plus the free term ``c`` when ``s0`` is given.
    """
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum point and value of ``a t^2 + b t + c`` on ``[lb, ub]``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """``0.5 s^T (J^T J + diag) s + g^T s`` for one step ``s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _update_tr_radius(Delta, actual_reduction, predicted_reduction,
                      step_norm, bound_hit):
    """New trust-region radius and the actual/predicted reduction ratio."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    """scipy's ftol / xtol status, or None to go on."""
    ftol_satisfied = dF < _TOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < _TOL * (_TOL + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    return None
