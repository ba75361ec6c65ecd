"""BFGS with a strong-Wolfe line search, for the rank-1 fit.

A port of scipy 1.17's `_minimize_bfgs` with `jac=True` and its
More-Thuente line search `line_search_wolfe1`, which runs MINPACK-2's
DCSRCH/DCSTEP (More and Thuente, ACM TOMS 20, 286, 1994).  Every
floating-point operation runs in scipy's order, so wherever DCSRCH
succeeds the port follows scipy bit for bit: from the same start it
ends at the same point after the same number of iterations and
objective evaluations.

The port keeps the arithmetic and drops numpy's per-scalar overhead.
DCSRCH's scalar logic runs on Python floats: the objective value and
the directional derivative are converted once per evaluation.  DCSTEP
computes on numpy float64 scalars, as scipy does, because its divisions
and square roots can meet zeros, where numpy returns inf or nan and
Python raises.  Python floats and numpy float64 are both IEEE double
arithmetic with the same rounding, so the same operations in scipy's
order give scipy's bits.

scipy's fallback search, `line_search_wolfe2` (Nocedal and Wright,
Numerical Optimization, 1999, algorithms 3.5 and 3.6), is left out.
When DCSRCH fails the port stops with status 2 at the current point,
which is where scipy ends whenever its fallback fails as well.  The
fallback runs in many rank-1 runs, but it does not change the fit `mle`
returns beyond round-off in the log-likelihood, and no selected rank or
`converged` flag depends on it.  Other
options the rank-1 fit does not use (callbacks, finite differences,
`xrtol`, a custom initial inverse Hessian, `c1`/`c2`) are left out too.

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math
from typing import NamedTuple

import numpy as np


class BfgsResult(NamedTuple):
    x: np.ndarray
    fun: float
    nit: int        # iterations, one line search each
    nfev: int       # objective evaluations at distinct points
    status: int     # 0 converged, 1 maxiter, 2 line search failed, 3 NaN


def minimize(fun, x0, args, gtol, maxiter):
    """Minimize `fun(x, *args) -> (f, gradient)` from x0 by BFGS.

    Stops when max|gradient| <= gtol or after `maxiter` iterations.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    last = [None, None, None]       # x, f, gradient of the last evaluation
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if last[0] is None or not (x == last[0]).all():
            f, g = fun(x, *args)
            last[:] = x, f, g
            nfev += 1
        return last[1], last[2]

    old_fval, gfk = evaluate(x0)
    k = 0
    N = len(x0)
    I = np.eye(N)
    Hk = I
    # sets the initial step guess to dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2
    xk = x0
    warnflag = 0
    gnorm = np.abs(gfk).max()
    while (gnorm > gtol) and (k < maxiter):
        pk = -np.dot(Hk, gfk)
        ret = _line_search_wolfe1(evaluate, xk, pk, gfk, old_fval,
                                  old_old_fval)
        if ret is None:
            # scipy tries its line_search_wolfe2 here; the port stops
            warnflag = 2
            break
        alpha_k, fval, gfkp1 = ret
        old_old_fval, old_fval = old_fval, fval

        sk = alpha_k * pk
        xk = xk + sk
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.abs(gfk).max()
        if (gnorm <= gtol):
            break
        # scipy's relative step test, alpha |pk| <= xrtol (xrtol + |xk|),
        # at its default xrtol = 0
        if alpha_k * _norm2(pk) <= 0 and math.isfinite(_norm2(xk)):
            break
        if not math.isfinite(old_fval):
            warnflag = 2
            break

        rhok_inv = np.dot(yk, sk)
        if rhok_inv == 0.:
            rhok = 1000.0
        else:
            rhok = 1. / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        # scipy's A2 = I - yk sk' rhok is A1' bit for bit; copied to a
        # C-ordered array, it makes the same BLAS call as scipy's A2
        A2 = A1.T.copy()
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] *
                                           sk[np.newaxis, :])

    if warnflag != 2:
        if k >= maxiter:
            warnflag = 1
        elif np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any():
            warnflag = 3
    return BfgsResult(x=xk, fun=old_fval, nit=k, nfev=nfev, status=warnflag)


def _norm2(x):
    return math.sqrt((x * x).sum())


def _initial_step(phi0, old_phi0, derphi0):
    """Step guess 1.01 * 2 (phi0 - old_phi0) / phi'(0), at most 1."""
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01*2*(phi0 - old_phi0)/derphi0)
    else:
        alpha1 = 1.0
    if alpha1 < 0:
        alpha1 = 1.0
    return alpha1


def _line_search_wolfe1(evaluate, xk, pk, gfk, old_fval, old_old_fval):
    """DCSRCH along pk: (alpha, f, gradient) at the step, or None."""
    gval = [gfk]

    def phi_and_derphi(s):
        f, gval[0] = evaluate(xk + s*pk)
        return float(f), float(np.dot(gval[0], pk))

    phi0 = float(old_fval)
    derphi0 = float(np.dot(gfk, pk))
    alpha1 = _initial_step(phi0, float(old_old_fval), derphi0)
    ret = _dcsrch(phi_and_derphi, alpha1, phi0, derphi0)
    if ret is None:
        return None
    return ret[0], ret[1], gval[0]


def _dcsrch(phi_and_derphi, stp, finit, ginit):
    """MINPACK-2 DCSRCH: a step satisfying the strong Wolfe conditions.

    Returns (stp, phi(stp)) on convergence, None on a warning, an input
    error or 100 evaluations.  The state that scipy's DCSRCH class keeps
    in attributes is held in locals here.
    """
    # the Armijo and curvature constants of the strong Wolfe conditions,
    # and the bounds on the step that scipy's BFGS passes
    ftol, gtol, xtol = 1e-4, 0.9, 1e-14
    stpmin, stpmax = 1e-100, 1e100
    p5, p66, xtrapl, xtrapu = 0.5, 0.66, 1.1, 4.0
    if stp < stpmin or stp > stpmax or ginit >= 0:
        return None
    brackt = False
    stage = 1
    gtest = ftol * ginit
    width = stpmax - stpmin
    width1 = width / p5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + xtrapu * stp
    for it in range(100):
        if it:
            ftest = finit + stp * gtest
            if stage == 1 and f <= ftest and g >= 0:
                stage = 2
            if f <= ftest and abs(g) <= gtol * -ginit:
                return stp, f
            if (brackt and (stp <= stmin or stp >= stmax)
                    or brackt and stmax - stmin <= xtol * stmax
                    or stp == stpmax and f <= ftest and g <= gtest
                    or stp == stpmin and (f > ftest or g >= gtest)):
                return None

            if stage == 1 and f <= fx and f > ftest:
                # the modified function psi(stp) = f - stp * gtest
                fm = f - stp * gtest
                fxm = fx - stx * gtest
                fym = fy - sty * gtest
                gm = g - gtest
                gxm = gx - gtest
                gym = gy - gtest
                with np.errstate(invalid="ignore", over="ignore"):
                    stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                        stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt,
                        stmin, stmax)
                fx = fxm + stx * gtest
                fy = fym + sty * gtest
                gx = gxm + gtest
                gy = gym + gtest
            else:
                with np.errstate(invalid="ignore", over="ignore"):
                    stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                        stx, fx, gx, sty, fy, gy, stp, f, g, brackt,
                        stmin, stmax)

            # bisect when the bracket does not shrink fast enough
            if brackt:
                if abs(sty - stx) >= p66 * width1:
                    stp = stx + p5 * (sty - stx)
                width1 = width
                width = abs(sty - stx)
            if brackt:
                stmin = min(stx, sty)
                stmax = max(stx, sty)
            else:
                stmin = stp + xtrapl * (stp - stx)
                stmax = stp + xtrapu * (stp - stx)
            stp = min(max(stp, stpmin), stpmax)
            # no further progress possible: fall back to the best step
            if (brackt and (stp <= stmin or stp >= stmax)
                    or (brackt and stmax - stmin <= xtol * stmax)):
                stp = stx
        if not math.isfinite(stp):
            return None
        f, g = phi_and_derphi(stp)
    return None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 DCSTEP: a safeguarded cubic or quadratic step, and the
    updated interval (stx, sty) that brackets a minimizer once brackt.

    Computes on numpy float64 scalars, as scipy does: its divisions and
    square roots can meet zeros and negatives, where numpy returns inf
    or nan and Python floats raise."""
    stx, fx, dx, sty, fy, dy, stp, fp, dp = map(
        np.float64, (stx, fx, dx, sty, fy, dy, stp, fp, dp))
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:
        # higher function value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (
            stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # lower value, derivatives of opposite sign: bracketed
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # lower value, same sign, the derivative's magnitude decreases
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = min(max(stpf, stpmin), stpmax)
    else:
        # lower value, same sign, the derivative does not decrease
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return (float(stx), float(fx), float(dx), float(sty), float(fy),
            float(dy), float(stpf), brackt)
