"""Bounded Trust Region Reflective least squares for small dense fits.

A port of the bounded branch of scipy 1.17's ``least_squares`` with
``method="trf"`` (``scipy/optimize/_lsq/trf.py`` and the helpers it
calls from ``common.py``): the algorithm of Branch, Coleman & Li, SIAM
J. Sci. Comput. 21, 1-23 (1999).  Only what ``least_squares`` runs for a
dense Jacobian under finite bounds with its defaults is kept: the exact
(SVD) trust-region solver, linear loss, unit variable scale and
``ftol = xtol = gtol = 1e-8``.  Every floating-point operation happens in
scipy's order on the same values, so the search visits the same points
and stops at the same bits.  Gone is the per-call machinery:
``VectorFunction``, ``scipy.linalg.svd``'s wrapper and, on the common
step, numpy calls on 3-element arrays where Python floats give the same
IEEE values (elementwise arithmetic, comparisons, ``sqrt``, the clip).
Dot products, matrix-vector products, sums and array powers stay numpy's
(OpenBLAS fuses multiply-adds; numpy's ``power`` is not libm's).  The SVD
is numpy's LAPACK ``dgesdd``, its factors in the Fortran order scipy
returns, so the products with them run the same BLAS kernels; bit
identity also needs numpy's and scipy's LAPACK builds to agree, which
the tests check against scipy.
"""

from __future__ import annotations

import math
from math import copysign
from operator import le
from typing import NamedTuple

import numpy as np

_TOL = 1e-8  # least_squares' default ftol, xtol and gtol
_EPS = np.finfo(float).eps


def _norm(x):
    """``numpy.linalg.norm`` of a 1-D float64 array, by its own formula."""
    return math.sqrt(x.dot(x))


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


def trf_bounds(evaluate, x0, lb, ub, max_nfev) -> TRFResult:
    """Minimize ``0.5 * |f(x)|^2`` over ``lb <= x <= ub`` from ``x0``.

    ``x0`` must lie strictly inside the finite bounds (``least_squares``
    nudges it inward first; a strictly interior start is left alone).
    ``evaluate(x)``, for ``x`` a list of floats, returns ``f(x)`` and the
    dense ``(m, n)`` Jacobian, which is read only at an accepted point.
    """
    x = x0.copy()
    x_list = x0.tolist()
    f, J = evaluate(x_list)
    if not np.isfinite(f).all():
        raise ValueError("Residuals are not finite in the initial point.")
    nfev = 1
    m, n = J.shape
    cost = 0.5 * float(f.dot(f))
    g = J.T.dot(f)
    x_norm = _norm(x)
    lb_list, ub_list = lb.tolist(), ub.tolist()
    # make_strictly_feasible(..., rstep=0): a point on or past a bound
    # moves to the nearest float inside it; every other point stays
    inner = list(zip(np.nextafter(lb, ub).tolist(), np.nextafter(ub, lb).tolist()))

    v = _scaling_vector(x_list, g.tolist(), lb_list, ub_list)[0]
    Delta = _norm(x0 / np.sqrt(v)) or 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]  # a view
    # the lower block is diagonal; only its diagonal is ever written
    diag_augmented = J_augmented[m:].reshape(-1)[:: n + 1]
    alpha = 0.0  # Levenberg-Marquardt parameter
    termination_status = None
    while True:
        g_list = g.tolist()
        v, dv, g_norm = _scaling_vector(x_list, g_list, lb_list, ub_list)
        if g_norm < _TOL:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break

        # "hat" space: x = d * x_h, with the Coleman-Li diagonal term
        d = np.sqrt(v)
        diag_h = np.array([gi * dvi for gi, dvi in zip(g_list, dv)])
        g_h = d * g

        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        np.sqrt(diag_h, out=diag_augmented)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha, step_h_norm = _solve_lsq_trust_region(
                n, m, uf, s, V, Delta, alpha
            )
            step = d * p_h
            trial = [xi + si for xi, si in zip(x_list, step.tolist())]
            if all(map(le, lb_list, trial)) and all(map(le, trial, ub_list)):
                predicted_reduction = -_evaluate_quadratic(J_h, g_h, p_h, diag_h)
            else:
                step, step_h, predicted_reduction = _select_step(
                    x_list, J_h, diag_h, g_h, step, p_h, d, Delta, lb_list, ub_list, theta
                )
                step_h_norm = _norm(step_h)
                trial = [xi + si for xi, si in zip(x_list, step.tolist())]
            x_new = [lo if t < lo else hi if t > hi else t
                     for t, (lo, hi) in zip(trial, inner)]
            f_new, J_new = evaluate(x_new)
            nfev += 1

            # a finite sum of squares has finite terms
            ff = float(f_new.dot(f_new))
            if not (math.isfinite(ff) or np.isfinite(f_new).all()):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * ff
            actual_reduction = cost - cost_new
            # the radius follows the actual / predicted reduction ratio
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            else:
                ratio = 1 if predicted_reduction == actual_reduction == 0 else 0
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            else:
                Delta_new = Delta
            # scipy's status: ftol (2), xtol (3) or both (4)
            ftol = actual_reduction < _TOL * cost and ratio > 0.25
            xtol = _norm(step) < _TOL * (_TOL + x_norm)
            if ftol or xtol:
                termination_status = 4 if ftol and xtol else 2 if ftol else 3
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x_list, f, J, cost = x_new, f_new, J_new, cost_new
            x = np.array(x_list)
            x_norm = _norm(x)
            g = J.T.dot(f)

    return TRFResult(x=x, cost=cost, fun=f, jac=J, status=termination_status or 0)


def _svd(a: np.ndarray):
    """``scipy.linalg.svd(a, full_matrices=False)`` for a float64 matrix.

    ``u`` and ``vt`` come back in Fortran order, as scipy's do.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return np.asfortranarray(u), s, np.asfortranarray(vt)


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector ``v``, its derivative ``dv`` and ``max |g v|``.

    ``v`` is the distance to the bound the anti-gradient points at, 1
    where the gradient is zero.  Lists of floats; a NaN product makes the
    norm NaN, as numpy's.
    """
    v, dv = [], []
    g_norm = 0.0
    for xi, gi, lo, hi in zip(x, g, lb, ub):
        # gi > 0: the anti-gradient points at the lower bound
        vi, dvi = (xi - lo, 1.0) if gi > 0 else (hi - xi, -1.0) if gi < 0 else (1.0, 0.0)
        v.append(vi)
        dv.append(dvi)
        gv = abs(gi * vi)
        if gv > g_norm or gv != gv:
            g_norm = gv
    return v, dv, g_norm


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """More's trust-region solution from one SVD of the Jacobian.

    Returns the step, the Levenberg-Marquardt parameter ``alpha`` with
    ``(J^T J + alpha I) p = -J^T f`` and the step's norm; ``rtol = 0.01``
    and at most 10 root-finding iterations, as scipy.
    """
    full_rank = m >= n and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        p_norm = _norm(p)
        if p_norm <= Delta:
            return p, 0.0, p_norm

    suf = s * uf
    # numpy's ``x**2`` is ``x * x``; the cubes and sums stay numpy's
    s2, suf2 = s * s, suf * suf

    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.add.reduce(suf2 / denom**3) / p_norm

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
        if abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s2 + alpha))
    # rescale onto the trust-region boundary, so p cannot lie outside it
    p *= Delta / _norm(p)
    return p, alpha, _norm(p)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """Best of the bounded trust-region, reflected and Cauchy steps.

    For a trust-region step ``p`` that leaves the bounds (the caller takes
    one inside them as it is); ``x``, ``lb`` and ``ub`` are lists.  Returns
    the step in the original and the hat space and the predicted cost
    reduction.
    """
    p_stride, hits = _step_size_to_bound(x, p.tolist(), lb, ub)

    # reflected direction
    r_h = p_h * [-1.0 if hit else 1.0 for hit in hits]
    r = d * r_h

    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = [xi + pi for xi, pi in zip(x, p.tolist())]

    # the reflected direction leaves first the box or the trust region
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r.tolist(), lb, ub)

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
    to_bound, _ = _step_size_to_bound(x, ag.tolist(), lb, ub)
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

    Lists of floats, with numpy's ``maximum`` and ``min`` (a NaN wins).
    ``hits`` is -1 / 1 where the lower / upper bound is reached, else 0.
    """
    steps = []
    for xi, si, lo, hi in zip(x, s, lb, ub):
        to_lo, to_hi = ((lo - xi) / si, (hi - xi) / si) if si else (math.inf, math.inf)
        steps.append(to_lo if to_lo >= to_hi or to_lo != to_lo else to_hi)
    min_step = steps[0]
    for t in steps[1:]:
        if not (min_step <= t or min_step != min_step):
            min_step = t
    return min_step, [(t == min_step) * ((si > 0) - (si < 0)) for t, si in zip(steps, s)]


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
    y = [ti * (a * ti + b) + c for ti in t]
    # numpy's argmin: the first NaN, else the first minimum
    i = next((k for k, yk in enumerate(y) if yk != yk), None)
    i = y.index(min(y)) if i is None else i
    return t[i], y[i]


def _evaluate_quadratic(J, g, s, diag):
    """``0.5 s^T (J^T J + diag) s + g^T s`` for one step ``s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)
