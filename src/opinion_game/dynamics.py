"""Per-phase steady states of the opinion process and phase chaining.

Within one phase every node repeatedly mixes its initial bias, its
neighbours' current opinions, and the camps' investments:

    v  <-  w v + (w0 o v_prev + wg o x - wb o y)        (o = elementwise)

Because the network rows are strictly substochastic in absolute value, the
update is a convergent affine map and the phase settles at

    v* = (I - w)^{-1} (w0 o v_prev + wg o x - wb o y).

Each network has one solver (:class:`_Solver`), made on its first solve:
it refuses rho = max_i sum_j |w_ij| >= 1 and chooses once, from n, nnz and
rho (:func:`_solves_dense`), between the dense inverse and sweeps of the
recursion, weighted by the Chebyshev recurrence once plain sweeps prove slow.
:func:`solve_linear`, which takes no options, and ``centrality`` read it. On
the iterative path with a uniform, nonzero w0, r and s of ``compute_profile``
start their sweeps from one Chebyshev series for both, under the same
certificate (:meth:`_Solver.katz_pair`).
Phases chain by feeding each phase's converged opinions in as the next
phase's bias.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .model import Network

#: networks up to this node count are always solved with the dense inverse
DENSE_MAX_N = 512
#: and none above this one: its inverse holds 128 MiB and takes about 2.7 s
DENSE_LIMIT_N = 4096
#: cost of a sweep per unit of nnz + n over the inverse's per unit of n^3:
#: 1.7-3.5 ns against 0.04-0.06 ns (numpy 2.4, 2-core Xeon, 1k-200k nodes)
SWEEP_COST_RATIO = 40
#: iterative solves give up after this many sweeps
MAX_SWEEPS = 100_000
#: error bound of every iterative solve, in exact arithmetic
DEFAULT_TOL = 1e-10
#: a step that stalls within this many ulps of the iterate is rounding
STALL_ULPS = 8
EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """A solve could not be certified: the dense inverse failed its residual
    check, the recursion is no contraction (rho >= 1), or it did not meet
    its error bound within its sweep budget."""


def _vec(value, n: int, name: str) -> np.ndarray:
    if value is None:
        return np.zeros(n)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {arr.shape}")
    return arr


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two vectors, summed by numpy's own loop: OpenBLAS hands a
    dot of about 20,000 entries or more to its threads, at a flat ~8 ms on a
    2-core host, where this loop takes 0.13 ms at 200,000 entries."""
    return float(np.einsum("i,i->", a, b))


def _sweeps(rho: float, bound: float, tol: float) -> int:
    """Sweeps until rho^k * bound < tol, for rho < 1."""
    if bound < tol:
        return 0
    return math.ceil(math.log(tol / bound) / math.log(rho))


def _solves_dense(net: Network) -> bool:
    """Dense up to ``DENSE_MAX_N`` nodes; iterative above ``DENSE_LIMIT_N``;
    in between dense when the k(rho) = log(tol (1 - rho) / rho) / log(rho)
    sweeps of a certified iterative solve exceed ``MAX_SWEEPS`` or cost more
    than the inverse."""
    n = net.n
    if n <= DENSE_MAX_N or n > DENSE_LIMIT_N:
        return n <= DENSE_MAX_N
    rho = float(net.row_abs_sums.max())
    sweeps = _sweeps(rho, rho / (1.0 - rho), DEFAULT_TOL)
    return sweeps > MAX_SWEEPS or SWEEP_COST_RATIO * sweeps * (net.weights.nnz + n) > n ** 3


def _norm(a: np.ndarray, column_sums: bool) -> float:
    """Max-norm of a vector or block, or the largest column 1-norm."""
    a = np.abs(a)
    return float((a.sum(axis=0) if column_sums else a).max(initial=0.0))


def _iterate(mat, rhs: np.ndarray, start: np.ndarray, rho: float,
             column_sums: bool) -> tuple[np.ndarray, int]:
    """Sweep J(v) = mat @ v + rhs from ``start``; returns (J(v), sweeps).

    ``mat`` contracts by ``rho`` in the max-norm, or in each column's 1-norm
    with ``column_sums``, so J is a rho-contraction and, for any v, J(v) lies
    within rho / (1 - rho) * |J(v) - v| of the fixed point: the loop stops
    once that is below ``DEFAULT_TOL``, or once a step fails to shrink by
    rho (only rounding does that) within ``STALL_ULPS`` ulps of J(v). The
    budget is where the first step, shrunk by rho per sweep, meets
    DEFAULT_TOL / 2, plus two, at most ``MAX_SWEEPS``; the halved target
    leaves room for the rounding of the last steps, which near rho = 1
    outweighs rho^2.

    Plain sweeps take v <- J(v). They stay plain while each shrinks the
    step by at least ``pace`` = rho / (1 + sqrt(1 - rho^2)), the rate at
    which sweeps weighted by the Chebyshev recurrence for a spectrum in
    [-rho, rho] (Golub & Varga 1961) shrink it. At the
    first plain sweep that does worse, by q > pace, the weights start from
    the iterate before it, y_0: y_1 = J(y_0) and y_{j+1} = y_{j-1} +
    omega_{j+1} (J(y_j) - y_{j-1}), omega_2 = 1 / (1 - rho^2 / 2) and
    omega_{j+1} = 1 / (1 - rho^2 omega_j / 4). The stop rules above hold
    for any v, so the certificate is the same. The j-th weighted step should
    be at most step_0 q^j, the plain sweeps' own pace, or step_0 / T_j(1 /
    rho), the bound of the recurrence on a real spectrum (T_j the Chebyshev
    polynomial); both are at most step_0 rho^j, what plain sweeps
    guarantee. The first weighted step above both (a complex spectrum, a
    weight matrix whose plain sweeps speed up, as on acyclic parts, or
    rounding) drops the weights for the rest of the solve and restarts from
    the J(v) of the smallest step so far, with the budget recomputed from
    that step. Measured on directed networks, that costs at most three
    sweeps over plain ones, but steps alone cannot tell every fast plain
    solve: on a w with w^3 = 0 and rhs = 1 the max-norm steps first match
    those of a real spectrum, and at rho = 0.56 the weights stay for 21
    sweeps where plain sweeps end at sweep 3. The caller has refused
    rho >= 1 (:class:`_Solver`).
    """
    gain = rho / (1.0 - rho)
    pace = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    v = old = start
    it = 0
    prev = best_step = math.inf
    chebyshev = True  # False once the weights are dropped for good
    omega = None  # weight of the next sweep; None while the sweeps are plain
    max_iter = None  # the budget, set from the first step
    while True:
        nxt = mat @ v + rhs
        it += 1
        step = _norm(nxt - v, column_sums)
        if gain * step < DEFAULT_TOL:
            return nxt, it
        if step > rho * prev and step < STALL_ULPS * EPS * _norm(nxt, column_sums):
            return nxt, it
        if chebyshev:
            if step <= best_step:
                best, best_step = nxt, step
            if omega is None:
                if step > pace * prev:  # plain sweeps slower than weighted ones
                    # omega = 2 starts the recurrence at omega_2; on_pace and
                    # in_bound become step_0 q^j and step_0 / T_j(1 / rho)
                    omega, q, on_pace, in_bound = 2.0, step / prev, step, rho * prev
            elif step > max(on_pace, in_bound):
                chebyshev, omega = False, None
                nxt, step = best, best_step
                max_iter = min(MAX_SWEEPS, it + 2 + _sweeps(rho, gain * step, DEFAULT_TOL / 2))
        if not math.isfinite(step):
            raise ConvergenceError(f"recursion diverged (step {step:.3e})")
        if max_iter is None:
            max_iter = min(MAX_SWEEPS, 2 + _sweeps(rho, gain * step, DEFAULT_TOL / 2))
        if it >= max_iter:
            message = (f"error bound {gain * step:.3e} still above {DEFAULT_TOL:.1e} "
                       f"after {it} iterations")
            if it >= MAX_SWEEPS:
                message += (
                    f"; with row sums of |w| up to {rho:.6g} a certified solve needs more than "
                    f"{MAX_SWEEPS} sweeps, and such networks are not supported above "
                    f"{DENSE_LIMIT_N} nodes yet"
                )
            raise ConvergenceError(message)
        prev = step
        if omega is None:
            v, old = nxt, v
        else:
            omega = 1.0 / (1.0 - rho * rho * omega / 4.0)
            on_pace *= q
            in_bound *= rho * omega / 2.0
            v, old = old + omega * (nxt - old), v


def _katz_series(mat, rho: float, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(r, u) ~ ((I - mat)^{-1} 1, (I - mat)^{-2} 1) from one Chebyshev series,
    or None where it is abandoned; ``mat`` contracts by 0 < rho < 1 in the
    1-norm. With t = rho / (1 + sqrt(1 - rho^2)) and C = 1 / sqrt(1 - rho^2),

        1 / (1 - rho x) = C + 2 C sum_k t^k T_k(x),

    and since F^2 = F + rho dF/drho for F = 1 / (1 - rho x), the square has
    coefficients C^3 and 2 t^k (C^3 + k C^2). Here v_k = T_k(mat / rho) 1
    comes from the three-term recurrence, one product per term. The series
    stops once the next term of u is below EPS |u| in the 1-norm; it is
    abandoned once |v_k| passes 2n, as T_k grows on spectra outside
    [-rho, rho] (directed graphs, hubs), or where it would take more than
    ``MAX_SWEEPS`` terms. The sums are only a start for certified sweeps."""
    t = rho / (1.0 + math.sqrt(1.0 - rho * rho))
    if math.log(EPS) / math.log(t) > MAX_SWEEPS:
        return None
    c = 1.0 / math.sqrt(1.0 - rho * rho)
    prev = np.ones(n)
    v = mat @ prev / rho
    r, u = c * prev, c ** 3 * prev
    tk = 2.0 * t
    k = 1
    while True:
        size = float(np.abs(v).sum())
        if not size <= 2 * n:  # also abandons nan
            return None
        coef = tk * (c ** 3 + k * c * c)
        if coef * size < EPS * float(np.abs(u).sum()):
            return r, u
        r += tk * c * v
        u += coef * v
        prev, v = v, (2.0 / rho) * (mat @ v) - prev
        tk *= t
        k += 1


class _Solver:
    """A network's one linear solver, cached on it as ``Network._solver``:
    made once, it refuses rho >= 1 and chooses the path (:func:`_solves_dense`).
    It keeps w, w^T (a CSC view sharing w's arrays, made once: scipy makes a
    new object on every ``.T``), w0, n and rho, not the network, so no
    reference cycle keeps the network alive."""

    def __init__(self, net: Network):
        rho = float(net.row_abs_sums.max())
        if not rho < 1.0:  # also refuses nan
            raise ConvergenceError(f"row sums of |w| reach {rho:.6g}; the recursion is not a contraction")
        self.n, self.rho, self.w0 = net.n, rho, net.w0
        self.w, self.wt = net.weights, net.weights.T
        self.dense = _solves_dense(net)

    @cached_property
    def inverse(self) -> np.ndarray | None:
        """(I - w)^{-1}, read-only, formed on first read on the dense path;
        None on the iterative path, where it is never formed."""
        if not self.dense:
            return None
        try:
            inv = np.linalg.inv(np.eye(self.n) - self.w.toarray())
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"dense inverse failed: {exc}") from exc
        inv.setflags(write=False)
        return inv

    def solve(self, rhs: np.ndarray, transpose: bool) -> np.ndarray:
        """z of :func:`solve_linear`, for an rhs it has checked."""
        mat = self.wt if transpose else self.w
        if not self.dense:
            return _iterate(mat, rhs, rhs, self.rho, transpose)[0]
        delta = self.inverse
        z = (delta.T if transpose else delta) @ rhs
        resid = _norm(z - mat @ z - rhs, transpose)
        bound = 8 * self.n * EPS * _norm(rhs, transpose) / (1.0 - self.rho)
        if not resid <= bound:  # also refuses nan
            raise ConvergenceError(f"direct solve residual {resid:.3e} above its rounding bound {bound:.3e}")
        return z

    def katz_pair(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(r, s) of :func:`~opinion_game.centrality.compute_profile`, certified
        as :func:`solve_linear` certifies them, where the iterative path starts
        its sweeps from :func:`_katz_series`: there s = w0 (I - w^T)^{-2} 1
        with w0 uniform and nonzero. None on every other network, and where
        the series is abandoned."""
        rho, w0 = self.rho, self.w0[0]
        if self.dense or rho == 0.0 or w0 == 0.0 or not (self.w0 == w0).all():
            return None
        guess = _katz_series(self.wt, rho, self.n)
        if guess is None:
            return None
        r = _iterate(self.wt, np.ones(self.n), guess[0], rho, True)[0]
        s = _iterate(self.wt, self.w0 * r, w0 * guess[1], rho, True)[0]
        return r, s


def solve_linear(net: Network, rhs, *, transpose: bool = False) -> np.ndarray:
    """Solve (I - w) z = rhs, or (I - w^T) z = rhs, for a vector or an n x k block.

    rho >= 1 is refused (:class:`_Solver`). Dense solves apply the cached
    inverse, and the residual must stay within the rounding bound
    c n eps |rhs| / (1 - rho), c = 8, in the norm named below: that of
    summing n terms of |delta| |rhs|, whose rows of |delta| sum to at most
    1 / (1 - rho). The tighter c n eps (|rhs| + rho |z|) fails where signs
    cancel in delta @ rhs, and on transposed systems, for which the inverse
    is only a right inverse.
    Iterative solves run sweeps of the recursion, weighted by the Chebyshev
    recurrence once plain sweeps prove slower (see :func:`_iterate`). On a
    real spectrum, as a symmetric topology with per-row weights has, that
    often takes half the sweeps of the plain recursion or fewer. They are
    within ``DEFAULT_TOL`` of z in exact arithmetic, in the max-norm for
    plain systems and in each column's 1-norm for transposed ones; rounding
    adds at most about
    d eps (rho |z| + |rhs|) / (1 - rho) on rows of d entries. Raises
    ConvergenceError when neither path can certify a solution.
    """
    n = net.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(f"rhs must be a length-{n} vector or an {n} x k block, got {rhs.shape}")
    return net._solver.solve(rhs, transpose)


def steady_state(net: Network, v_prev, x=None, y=None, wg_eff=None, wb_eff=None) -> np.ndarray:
    """Converged opinions for one phase.

    ``wg_eff`` / ``wb_eff`` default to the network's fixed camp weights; pass
    the bias-dependent values when camp influence tracks the entering bias.
    Missing investment vectors mean no investment.
    """
    n = net.n
    v_prev, x, y = _vec(v_prev, n, "v_prev"), _vec(x, n, "x"), _vec(y, n, "y")
    wg = net.wg if wg_eff is None else _vec(wg_eff, n, "wg_eff")
    wb = net.wb if wb_eff is None else _vec(wb_eff, n, "wb_eff")
    return solve_linear(net, net.w0 * v_prev + wg * x - wb * y)


def dependency_camp_weights(theta, w0, v_prev) -> tuple[np.ndarray, np.ndarray]:
    """Effective camp weights when influence tracks the bias-weighted entering opinion.

    Each node splits its camp total theta between the camps in proportion to
    (1 +- w0 * v_prev) / 2, so the two weights always sum to theta.
    """
    lean = np.asarray(w0, dtype=float) * np.asarray(v_prev, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return theta * (1.0 + lean) / 2.0, theta * (1.0 - lean) / 2.0


def iter_phases(
    net: Network,
    plans: Sequence[tuple],
    mode: str = "fixed",
) -> Iterator[np.ndarray]:
    """Yield the converged opinion vector of each phase of a multi-phase schedule.

    ``plans`` is a sequence of (x, y) investment pairs, one per phase. In
    "dependency" mode the camp weights are recomputed from theta and the
    entering opinions at every phase boundary; in "fixed" mode the network's
    wg / wb vectors apply throughout.
    """
    if mode not in ("fixed", "dependency"):
        raise ValueError(f"mode must be 'fixed' or 'dependency', got {mode!r}")
    v = net.v0
    for x, y in plans:
        if mode == "dependency":
            wg_eff, wb_eff = dependency_camp_weights(net.theta, net.w0, v)
        else:
            wg_eff = wb_eff = None
        v = steady_state(net, v, x, y, wg_eff, wb_eff)
        yield v


def run_phases(
    net: Network, plans: Sequence[tuple], mode: str = "fixed"
) -> tuple[np.ndarray, list[float]]:
    """Chain phases and return (final opinions, per-phase opinion sums).

    ``plans`` holds one (x, y) investment pair per phase, as for
    :func:`iter_phases`; a p-phase run without investment passes
    ``[(zero, zero)] * p``.
    """
    if len(plans) < 1:
        raise ValueError("need at least one phase")
    sums: list[float] = []
    for v in iter_phases(net, plans, mode):
        sums.append(float(v.sum()))
    return v, sums
