"""BFGS with a strong-Wolfe line search, for the rank-1 fit.

A port of scipy 1.17's `_minimize_bfgs` with `jac=True` and its
More-Thuente line search `line_search_wolfe1`, which runs MINPACK-2's
DCSRCH/DCSTEP (More and Thuente, ACM TOMS 20, 286, 1994).  `minimize`
runs one such BFGS from every row of an (m, k) stack of starts, in
lockstep: each round evaluates the objective once, at the trial points
of every member still running, and a member leaves the stack when it
stops.  Each member's floating-point operations run in scipy's order,
so wherever DCSRCH succeeds every member follows scipy bit for bit: from
its start it ends at the same point after the same number of iterations
and objective evaluations, whatever else is on the stack.  A stack of
one is a single run.

The port keeps the arithmetic and drops numpy's per-call overhead by
sharing each call among the members.  The search directions, the dot
products and the inverse-Hessian updates are row-wise stacked products,
(m, k, k) @ (m, k, 1), (m, 1, k) @ (m, k, 1) and (m, k, k) @ (m, k, k),
which numpy runs as one BLAS call per member (gemv, ddot, gemm): the
call scipy makes for that member alone.  One matrix product over the
whole stack would change a member's last bits.  A round that ends some
members' line searches runs the BFGS step on the whole stack and keeps
it for those members only, which costs less than gathering their rows.
Each member's DCSRCH is a generator that yields a trial step and
receives the objective and its directional derivative there; its scalar
logic runs on Python floats.
DCSTEP computes on numpy float64 scalars, as scipy does, because its
divisions and square roots can meet zeros, where numpy returns inf or
nan and Python raises.  Python floats and numpy float64 are both IEEE
double arithmetic with the same rounding, so the same operations in
scipy's order give scipy's bits.  Each member caches its last
evaluation, as scipy does, so its `nfev` counts its evaluations at
distinct points.

scipy's fallback search, `line_search_wolfe2` (Nocedal and Wright,
Numerical Optimization, 1999, algorithms 3.5 and 3.6), is left out.
When DCSRCH fails the member stops with status 2 at its current point,
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
    """One member's run."""

    x: np.ndarray
    fun: float
    nit: int        # iterations, one line search each
    nfev: int       # objective evaluations at distinct points
    status: int     # 0 converged, 1 maxiter, 2 line search failed, 3 NaN


class BfgsResults(tuple):
    """The BfgsResult of each start, in start order.  `nfev` sums the
    members', so that a caller counting one call's evaluations counts
    all of them."""

    @property
    def nfev(self):
        return sum(r.nfev for r in self)


def minimize(fun, x0, args, gtol, maxiter):
    """Minimize `fun(x, *args) -> (f, gradient)` by BFGS from each row of
    the (m, k) stack x0, and return their BfgsResults.

    `fun` takes an (m, k) stack and returns the m values and the (m, k)
    gradients, each row's computed from that row alone.  A member stops
    when max|gradient| <= gtol or after `maxiter` iterations.
    """
    x0 = np.array(x0, dtype=float)
    m, k = x0.shape
    eye = np.eye(k)
    f, g = fun(x0, *args)
    fval = f.tolist()       # each member's f at its iterate
    # sets the initial step guess to dx ~ 1
    fold = [v + math.sqrt(s) / 2 for v, s in zip(fval, _dots(g, g))]
    gnorm = _max_abs(g)
    nit = [0] * m
    nfev = [1] * m
    status = [0] * m
    search = [None] * m
    results = [None] * m
    # the running members, one stack row each: row r is member rows[r],
    # at iterate xk[r] with gradient gk[r], inverse Hessian hk[r] and
    # direction pk[r]; its line search's trial step is stp[r, 0], and
    # last[r] is the last point it evaluated
    rows = list(range(m))
    xk, gk, last = x0, g, x0
    hk = np.broadcast_to(eye, (m, k, k)).copy()
    stp = np.empty((m, 1))
    stopped = [r for r in rows if not (gnorm[r] > gtol and maxiter > 0)]
    pk, failed = _start_searches(rows, [r for r in rows if r not in stopped],
                                 hk, gk, stp, fval, fold, search, status)
    stopped += failed
    while True:
        if stopped:
            for r in stopped:
                i = rows[r]
                results[i] = _result(xk[r], fval[i], gnorm[i], nit[i],
                                     nfev[i], status[i], maxiter)
            keep = [r for r in range(len(rows)) if r not in stopped]
            rows = [rows[r] for r in keep]
            xk, gk, hk, pk, stp, last = (a[keep] for a in
                                         (xk, gk, hk, pk, stp, last))
        if not rows:
            break
        sk = stp * pk
        trial = xk + sk
        f, g = fun(trial, *args)
        fresh = np.logical_or.reduce(trial != last, 1).tolist()
        last = trial
        stopped = []
        done, alphas = [], []   # rows whose line search succeeded
        for r, i, phi, derphi in zip(range(len(rows)), rows, f.tolist(),
                                     _dots(g, pk)):
            nfev[i] += fresh[r]
            try:
                stp[r] = search[i].send((phi, derphi))
            except StopIteration as stop:
                if stop.value is None:
                    # scipy tries its line_search_wolfe2 here; the port stops
                    status[i] = 2
                    stopped.append(r)
                else:
                    # the new iterate xk + alpha pk is the trial point
                    done.append(r)
                    alphas.append(stop.value[0])
                    fold[i], fval[i] = fval[i], stop.value[1]
        if not done:
            continue
        # the BFGS step runs on every row, and only the rows in `done`
        # keep it: the others are mid-search, and their results go unused
        yk = g - gk
        if len(done) == len(rows):
            xk, gk = trial, g
        else:
            kept = _rows_mask(len(rows), done)
            np.copyto(xk, trial, where=kept)
            np.copyto(gk, g, where=kept)
        norms = _max_abs(g)
        pnorms = np.add.reduce(pk * pk, 1).tolist()
        update = []
        for r, alpha in zip(done, alphas):
            i = rows[r]
            nit[i] += 1
            gnorm[i] = norms[r]
            # scipy's relative step test, alpha |pk| <= xrtol (xrtol +
            # |xk|), at its default xrtol = 0
            if (gnorm[i] <= gtol or alpha * math.sqrt(pnorms[r]) <= 0
                    and math.isfinite(_norm2(xk[r]))):
                stopped.append(r)
            elif not math.isfinite(fval[i]):
                status[i] = 2
                stopped.append(r)
            elif gnorm[i] > gtol and nit[i] < maxiter:
                update.append(r)
            else:
                stopped.append(r)
        if not update:
            continue
        scol = sk[:, :, None]
        rhok = np.array([1000.0 if v == 0.0 else 1.0 / v
                         for v in _dots(yk, sk)]).reshape(-1, 1, 1)
        a1 = eye - scol * yk[:, None, :] * rhok
        # scipy's A2 = I - yk sk' rhok is A1' bit for bit; copied to a
        # C-ordered array, it makes the same BLAS call as scipy's A2
        a2 = a1.transpose(0, 2, 1).copy()
        h = a1 @ (hk @ a2) + rhok * scol * sk[:, None, :]
        p, failed = _start_searches(rows, update, h, gk, stp, fval, fold,
                                    search, status)
        stopped += failed
        if len(update) == len(rows):
            hk, pk = h, p
        else:
            kept = _rows_mask(len(rows), update)
            np.copyto(hk, h, where=kept[:, :, None])
            np.copyto(pk, p, where=kept)
    return BfgsResults(results)


def _dots(a, b):
    """The dot product of each row of a with the same row of b, one
    ddot per row, as a list."""
    return (a[:, None, :] @ b[:, :, None]).ravel().tolist()


def _max_abs(a):
    """max|a| of each row, as a list."""
    return np.maximum.reduce(np.abs(a), 1).tolist()


def _rows_mask(m, rows):
    """An (m, 1) mask, True on the given rows."""
    mask = np.zeros((m, 1), dtype=bool)
    mask[rows] = True
    return mask


def _start_searches(rows, at, h, g, stp, fval, fold, search, status):
    """The directions -H g of the stack rows with inverse Hessians h and
    gradients g, and the line search started along it on each row in
    `at`, its first trial step in stp.  Returns the directions, and the
    rows whose search fails at once, with status 2."""
    p = -(h @ g[:, :, None])[:, :, 0]
    derphi0 = _dots(g, p)
    failed = []
    for r in at:
        i = rows[r]
        search[i] = _dcsrch(_initial_step(fval[i], fold[i], derphi0[r]),
                            fval[i], derphi0[r])
        try:
            stp[r] = next(search[i])
        except StopIteration:
            status[i] = 2
            failed.append(r)
    return p, failed


def _result(x, fun, gnorm, nit, nfev, status, maxiter):
    """A stopped member's BfgsResult, with scipy's final status."""
    if status != 2:
        if nit >= maxiter:
            status = 1
        elif math.isnan(gnorm) or math.isnan(fun) or np.isnan(x).any():
            status = 3
    return BfgsResult(x=x.copy(), fun=fun, nit=nit, nfev=nfev,
                      status=status)


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


def _dcsrch(stp, finit, ginit):
    """MINPACK-2 DCSRCH: a step satisfying the strong Wolfe conditions.

    A generator: it yields each trial step and receives (phi, phi') at
    it.  It returns (stp, phi(stp)) on convergence, the last step it
    yielded, and None on a warning, an input error or 100 evaluations.
    The state that scipy's DCSRCH class keeps in attributes is held in
    locals here.
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
        f, g = yield stp
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
