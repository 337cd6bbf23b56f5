"""Brute-force ground truth: explicit discretization of the Lorentzian bath.

The cavity continuum is replaced by n_modes equally spaced modes on a
window of +-span loss rates around the cavity center, each coupled with
g_k^2 = J(omega_k) * d_omega.  In the frame rotating with each amplitude's
own frequency, the single-excitation amplitudes of the qubits and modes
obey y' = -i H y with a constant real Hamiltonian H, whose exact solution
propagate evaluates from the eigenpairs of H.  Both qubits couple to the
same mode vector, so one rotation of the qubit pair turns H into a
one-spike arrowhead matrix: its eigenvalues are the roots of a scalar
secular equation, exactly one between each pair of adjacent poles, and
its eigenvectors follow from them in closed form (Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 15, 1266 (1994); Stor, Slapnicar & Barlow, Linear
Algebra Appl. 464, 62 (2015)).  The evolution is unitary, so the
completeness of the computed eigenvectors measures nothing but the error
of the root solve.  This engine validates both analytic engines and is
deliberately independent of them: no kernel, no survival amplitude, no
pseudomode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import DressedFrame, SystemParams
from .dynamics import AmplitudeTrajectory, ENGINE_ORACLE, IntegrationError, TimeGrid

DEFAULT_N_MODES = 4000
DEFAULT_SPAN = 50.0

# Largest completeness defect max |G - I| of the qubit blocks of the
# eigenvectors, G = sum_k u_k u_k^T, that a propagation may return.
NORM_ABORT = 1e-6

# Passes of the root iteration.  The certification points converge in
# about six; a root still moving after MAX_PASSES is a numerical failure.
MAX_PASSES = 40

# Size caps.  The eigen-expansion sums (n_modes + 2) x n_points terms
# e^{-i lam_k t_m}, 8.0e6 at the certification points (4000 modes, 2000
# samples); _phase_sum never stores them, so MAX_STATES bounds the work of
# a propagation, and its memory is O(n_modes + n_points).
MAX_N_MODES = 2 ** 16
MAX_STATES = 2 ** 24

# Cauchy sums over the comb: the NEAR nearest poles on each side of a root
# are summed exactly, the rest through TERMS powers of the root's offset
# from its nearest pole.  That offset is at most half the spacing, so the
# series ratio is at most r = 1 / (2 (NEAR + 1)) = 1/18, and the terms after
# the first k sum to at most r^k / (1 - r) of the far terms' absolute sum.
# TERMS is the smallest k that puts this below an eighth of a rounding unit,
# _phase_sum's stop rule: 2.8e-18 at 14 terms, 5.1e-17 at 13.
NEAR = 8
TERMS = 14

# Roots per block of the comb's near sums.  A block's (roots, 2 NEAR)
# temporaries then take 64 KB, however many roots there are, which bounds
# the comb's share of the peak memory of a propagation.
COMB_BLOCK = 512

# Relative stop of the root iteration: a root whose last step moved it by at
# most STOP times its offset from its pole is done.  The steps shrink
# quadratically, so the next step would move it by rounding alone.
STOP = 1e-9

# Rounding units, of the largest diagonal entry of H, below which a
# perturbation of H is dropped (see _eigenpairs).
_DEFLATE = 8.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Uniform midpoint discretization of the Lorentzian spectral density."""

    n_modes: int
    span: float
    mode_detunings: np.ndarray
    couplings: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.mode_detunings[1] - self.mode_detunings[0])

    @property
    def recurrence_time(self) -> float:
        """Revival horizon 2 pi / d_omega of the discrete frequency comb."""
        return 2.0 * math.pi / self.spacing


def build_bath(frame: DressedFrame, n_modes: int = DEFAULT_N_MODES,
               span: float = DEFAULT_SPAN) -> DiscretizedBath:
    """Midpoint-sample the Lorentzian J on [-span, +span] loss rates.

    Requires 100 <= n_modes <= MAX_N_MODES, span >= 10, and a mode spacing
    of at most 1/20 so the Lorentzian's unit width is resolved.
    """
    if not 100 <= n_modes <= MAX_N_MODES:
        raise ValueError(f"n_modes must be in [100, {MAX_N_MODES}], got {n_modes}")
    if span < 10.0:
        raise ValueError(f"span must be >= 10, got {span}")
    # The weight J(dw) d_omega / W^2 of a mode depends on its detuning dw
    # alone, so W is not squared.
    step = 2.0 * span / n_modes
    if step > 1.0 / 20.0 + 1e-15:
        raise ValueError(
            f"mode spacing {step:g} exceeds 1/20 of the loss rate; "
            f"need n_modes >= {40.0 * span:g} for span {span:g}")
    detunings = -span + (np.arange(n_modes) + 0.5) * step
    shape = step / math.pi / (detunings * detunings + 1.0)
    couplings = frame.W * np.sqrt(shape)
    return DiscretizedBath(n_modes=n_modes, span=span,
                           mode_detunings=detunings, couplings=couplings)


def propagate(params: SystemParams, frame: DressedFrame, bath: DiscretizedBath,
              grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact qubit amplitudes of the qubits-plus-modes Schrodinger equation.

    In the frame rotating with each amplitude's own frequency, the state
    y = (q_A, q_B, a_1..a_n) obeys y' = -i H y with the constant real
    Hamiltonian

        H_jj = e_j = chi_j + delta_L,  H_kk = dw_k,  H_jk = H_kj = w_j g_k,

    w_j = r_j cos^2(eta_j/2), and every a_k(0) = 0.  With the eigenvalues
    lam_k of H and the qubit blocks u_k of its eigenvectors,

        q(t) = q0 + sum_k (e^{-i lam_k t} - 1) u_k (u_k . q0),

    exact at t = 0, and C_j = q_j e^{i e_j t}.  total_norm, the norm of y,
    is |q0|^2 at t = 0 and sum_k |u_k . q0|^2 after.  A completeness
    defect max |sum_k u_k u_k^T - I| above NORM_ABORT raises
    IntegrationError.
    Comparisons are only meaningful before bath revivals, so the grid must
    end below half the recurrence time, and the sum may have at most
    MAX_STATES terms, (n_modes + 2) x n_points; _phase_sum evaluates it.
    """
    phases = (bath.n_modes + 2) * grid.n_points
    if phases > MAX_STATES:
        raise ValueError(
            f"{bath.n_modes} modes on {grid.n_points} samples need {phases} "
            f"phases, more than MAX_STATES = {MAX_STATES}")
    half_rec = 0.5 * bath.recurrence_time
    if grid.t_max >= half_rec:
        raise ValueError(
            f"grid reaches t = {grid.t_max:g}, past half the bath recurrence "
            f"time {bath.recurrence_time:g}; enlarge n_modes/span")
    weights = np.array([params.r1 * frame.cos2_A,
                        params.r2 * frame.cos2_B])
    rates = np.array([frame.chi_A, frame.chi_B]) + frame.delta_L
    q0 = np.array([params.c01, params.c02])
    t = grid.samples
    q = np.empty((2, grid.n_points), dtype=complex)
    q[:] = q0[:, None]
    total_norm = np.full(grid.n_points, float(np.sum(np.abs(q0) ** 2)))
    # The coupling part of H has norm |w| |g|, so it moves the amplitudes by
    # at most |w| |g| t_max; below a rounding unit it is dropped.
    coupling = math.hypot(*weights) * float(np.hypot.reduce(bath.couplings))
    if coupling * grid.t_max > np.finfo(float).eps:
        # Past the float range the eigenpairs are not finite, which
        # _eigenpairs reports; numpy need not warn.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            energies, blocks = _eigenpairs(rates, weights, bath.mode_detunings,
                                           bath.couplings)
        defect = float(np.max(np.abs(blocks.T @ blocks - np.eye(2))))
        if not defect <= NORM_ABORT:
            raise IntegrationError(
                f"norm conservation breached: completeness defect "
                f"max |G - I| = {defect:.3e} (n_modes={bath.n_modes})")
        projections = blocks @ q0
        total_norm[1:] = np.sum(np.abs(projections) ** 2)
        coef = blocks * projections[:, None]
        q += _phase_sum(energies, coef, t) - np.sum(coef, axis=0)[:, None]
        q[:, 0] = q0
        q *= np.exp(1j * rates[:, None] * t)
    # Without coupling, q(t) = e^{-i E t} q0 and C(t) = q0.
    return AmplitudeTrajectory(grid=grid, c1=q[0], c2=q[1],
                               engine_tag=ENGINE_ORACLE, total_norm=total_norm)


def _phase_sum(energies: np.ndarray, coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S[:, m] = sum_k coef[k] e^{-i energies[k] s[m]} on uniform samples s from 0.

    Each energy is rounded to the frequency grid of an FFT of length
    L >= 2 (n - 1) over the n samples, spacing b = 2 pi / (L ds):
    energies[k] = n_k b + tau_k with |tau_k| <= b/2, and e^{-i n_k b m ds}
    = e^{-2 pi i n_k m / L} depends on n_k mod L alone.  So

        S[:, m] = sum_p (-i s_m)^p / p! FFT(a_p)[m],
        a_p[j] = sum over n_k = j mod L of coef[k] tau_k^p,

    a Taylor-shifted FFT (Anderson & Dahleh, SIAM J. Sci. Comput. 17, 913
    (1996)).  |tau s| <= pi (n - 1) / L <= pi/2, so the series is cut at the
    first term whose bound falls below an eighth of a rounding unit, at most
    22 terms; Horner's rule sums them from the highest, one FFT each, in
    O(n_modes + n log n) memory and a fixed order of operations.  Energies
    beyond 2^40 grid steps, far outside every comb (only a huge qubit energy
    gets there), are summed directly, so no grid index overflows.
    """
    n = s.size
    size = 1 << (2 * n - 3).bit_length()
    b = 2.0 * math.pi * (n - 1) / (size * s[-1])
    on_grid = np.abs(energies) <= 2.0 ** 40 * b
    nearest = np.rint(energies[on_grid] / b)
    # Offsets in units of b/2, so |tau| <= 1 and no power of it overflows.
    tau = (energies[on_grid] - b * nearest) * (2.0 / b)
    z = -0.5j * b * s
    bound = float(np.max(np.abs(tau), initial=0.0) * np.abs(z[-1]))
    order, term = 0, bound
    while term > 0.125 * np.finfo(float).eps:
        order += 1
        term *= bound / (order + 1)
    # a_p of both columns is one bincount over the float view of
    # coef tau^p, whose rows (re, im, re, im) land in a (2, L) complex array.
    bins = 2 * np.mod(nearest, size).astype(np.intp)
    index = (bins[:, None] + [0, 1, 2 * size, 2 * size + 1]).ravel()
    weights = coef[on_grid]
    # tau^p as a product of the squarings tau^(2^j) over the bits of p.
    squarings = [tau]
    for _ in range(order.bit_length() - 1):
        squarings.append(squarings[-1] ** 2)
    out = np.zeros((2, n), dtype=complex)
    for p in range(order, -1, -1):
        power = math.prod((x for j, x in enumerate(squarings) if p >> j & 1),
                          start=np.ones_like(tau))
        a = np.bincount(index, (weights * power[:, None]).view(float).ravel(),
                        minlength=4 * size)
        out = np.fft.fft(a.view(complex).reshape(2, size))[:, :n] + out * (z / (p + 1))
    for energy, c in zip(energies[~on_grid], coef[~on_grid]):
        out += c[:, None] * np.exp(-1j * energy * s)
    return out


def _eigenpairs(rates: np.ndarray, weights: np.ndarray, d: np.ndarray,
                g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of H and the qubit blocks (eigenvalues x 2) of its eigenvectors.

    H has the diagonal rates and mode frequencies d and the couplings
    weights_j g_k.

    In the qubit basis w_hat = w/|w|, w_perp = (w_B, -w_A)/|w| only w_hat
    couples to the modes, with spikes |w| g_k, and w_perp couples to w_hat
    alone, with eps = w_perp^T E w_hat: H is an arrowhead with head
    c = w_hat^T E w_hat and poles dw_k and p* = w_perp^T E w_perp.  An
    eigenvector has head component 1, pole components z_p / (lam - p) and
    squared norm 1 + sum_p z_p^2 / (lam - p)^2 = f'(lam), so its qubit block
    is (w_hat + eps / (lam - p*) w_perp) / sqrt(f'(lam)).  p* deflates into
    the eigenpair (p*, w_perp) when eps is negligible (equal detunings,
    r1 in {0, 1}, or one cos^2(eta/2) = 0), and into (p*, -z_k/rho w_perp),
    rho^2 = z_k^2 + eps^2, when it falls on a mode frequency dw_k (to
    rounding), whose spike then becomes rho.
    """
    w_hat = weights / math.hypot(*weights)
    w_perp = np.array([w_hat[1], -w_hat[0]])
    c, p_star, eps = (float(a @ (rates * b)) for a, b in
                      ((w_hat, w_hat), (w_perp, w_perp), (w_perp, w_hat)))
    z2 = (math.hypot(*weights) * g) ** 2
    # Perturbations of H below this size are rounding: eps is dropped, and
    # p* is moved onto a mode frequency this close to it.
    negligible = _DEFLATE * max(np.max(np.abs(rates)), -d[0], d[-1])
    dark = []
    extra = None
    k = int(np.argmin(np.abs(d - p_star)))
    if abs(eps) <= negligible:
        eps = 0.0
        dark.append((p_star, w_perp))
    elif abs(d[k] - p_star) <= negligible:
        p_star = float(d[k])
        dark.append((p_star, -math.sqrt(z2[k] / (z2[k] + eps * eps)) * w_perp))
        z2[k] += eps * eps
    else:
        extra = (p_star, eps * eps)
    origin, tau, slope = _secular_roots(c, d, z2, extra)
    head = 1.0 / np.sqrt(slope)
    blocks = head[:, None] * w_hat
    if eps:
        blocks += (eps * head / ((origin - p_star) + tau))[:, None] * w_perp
    energies = origin + tau
    if dark:
        energies = np.concatenate((energies, [p for p, _ in dark]))
        blocks = np.concatenate((blocks, [u for _, u in dark]))
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(blocks))):
        raise IntegrationError(f"bath eigenpairs are not finite (n_modes={d.size})")
    return energies, blocks


def _secular_roots(c: float, d: np.ndarray, z2: np.ndarray, extra):
    """All roots of f(lam) = lam - c - sum_p z_p^2 / (lam - p).

    The poles are the uniform comb d with weights z2, plus extra = (p, z^2)
    when given.  f rises from -inf to +inf between adjacent poles and on the
    two outer half-lines, so it has exactly one root on each.  The comb's
    Cauchy sums take the NEAR nearest poles exactly and the rest through
    the far-field coefficients of _far_field; the at most four roots beside
    the extra pole or outside all poles use direct sums.  Returns each
    root's nearer pole, its offset tau from it and f' at the root.
    """
    n = d.size
    h = (d[-1] - d[0]) / (n - 1)
    far = _far_field(z2, h)
    offsets = np.concatenate((np.arange(NEAR), np.arange(NEAR + 1, 2 * NEAR + 1)))
    z_pad = np.concatenate((np.zeros(NEAR), z2, np.zeros(NEAR)))
    d_pad = np.concatenate((d[0] + h * np.arange(-NEAR, 0), d,
                            d[-1] + h * np.arange(1, NEAR + 1)))
    p_star, eps2 = extra if extra else (0.0, 0.0)

    def comb(o, tau):
        """(f, f') at d[o] + tau, |tau| <= h/2, without the terms of pole o."""
        near, near_slope = np.empty_like(tau), np.empty_like(tau)
        for k in range(0, tau.size, COMB_BLOCK):
            block = slice(k, k + COMB_BLOCK)
            idx = o[block, None] + offsets
            gap = tau[block, None] - (d_pad[idx] - d[o[block]][:, None])
            terms = z_pad[idx] / gap
            near[block] = np.sum(terms, axis=1)
            near_slope[block] = np.sum(terms / gap, axis=1)
        # Horner's rule in place; a 1-D take gathers a row faster than far[j, o].
        value, slope = far[-1].take(o), np.zeros_like(tau)
        for j in range(TERMS - 2, -1, -1):
            slope *= tau
            slope += value
            value *= tau
            value += far[j].take(o)
        rest = (d[o] - c) + tau - near + value
        slope += 1.0 + near_slope
        if extra:
            gap = tau - (p_star - d[o])
            rest -= eps2 / gap
            slope += eps2 / gap ** 2
        return rest, slope

    poles, weights = d, z2
    gaps = np.arange(n - 1)
    beside = np.arange(0)
    if extra:
        j = int(np.searchsorted(d, p_star))
        poles, weights = np.insert(d, j, p_star), np.insert(z2, j, eps2)
        gaps = gaps[gaps != j - 1]
        beside = np.array([g for g in (j - 1, j) if 0 <= g < n])

    def direct(origin, tau):
        """(f, f') at origin + tau by full sums, without the origin's terms."""
        shift = poles - origin[:, None]
        gap = tau[:, None] - shift
        terms = np.where(shift == 0.0, 0.0, weights) / gap
        rest = (origin - c) + tau - np.sum(terms, axis=1)
        return rest, 1.0 + np.sum(terms / gap, axis=1)

    roots = [_gap_roots(lambda sel, side, x: comb(gaps[sel] + side, x),
                        d[gaps], d[gaps + 1], z2[gaps], z2[gaps + 1])]
    if beside.size:
        left, right = poles[beside], poles[beside + 1]
        roots.append(_gap_roots(
            lambda sel, side, x: direct(np.where(side, right[sel], left[sel]), x),
            left, right, weights[beside], weights[beside + 1]))
    # The outer roots lie within sqrt(sum z^2), plus the distance of c, of
    # the outermost poles: f <= 0 at the lower start and f >= 0 at the upper.
    bound = math.sqrt(float(np.sum(weights)))
    origin = poles[[0, -1]]
    tau = np.array([-(max(0.0, poles[0] - c) + bound),
                    max(0.0, c - poles[-1]) + bound])
    tau, slope = _iterate(lambda sel, x: direct(origin[sel], x), tau,
                          *direct(origin, tau), weights[[0, -1]],
                          np.array([-np.inf, np.inf]), np.array([2.0 * tau[0], 0.0]),
                          np.array([0.0, 2.0 * tau[1]]))
    roots.append((origin, tau, slope))
    return tuple(np.concatenate(x) for x in zip(*roots))


def _gap_roots(evaluate, left, right, w_left, w_right):
    """The root of f in each gap (left, right) between adjacent poles.

    evaluate(sel, side, tau) gives f and f' at offset tau from the left
    (side 0) or right (side 1) pole of the gaps sel, each without the terms
    of that pole.  Pass 0 is the midpoint, seen from the left pole; the sign
    of f there picks the nearer pole as origin.
    """
    half = 0.5 * (left + right) - left
    rest, slope = evaluate(slice(None), 0, half)
    f = rest - w_left / half
    side = (f <= 0.0).astype(int)
    origin = np.where(side, right, left)
    tau = 0.5 * (left + right) - origin
    # The same point seen from the right pole: move that pole's terms over.
    rest = np.where(side, f + w_right / tau, rest)
    slope = np.where(side, slope + w_left / half ** 2 - w_right / tau ** 2, slope)
    lo, hi = np.where(side, tau, 0.0), np.where(side, 0.0, tau)
    tau, slope = _iterate(lambda sel, x: evaluate(sel, side[sel], x), tau, rest,
                          slope, np.where(side, w_right, w_left),
                          np.where(side, left, right) - origin, lo, hi)
    return origin, tau, slope


def _iterate(evaluate, tau, rest, slope, weight, other, lo, hi):
    """Fixed-weight iteration for roots bracketed in (lo, hi).

    Each root is an offset tau from its origin pole, of weight s; evaluate
    (sel, tau) gives rest = f + s/tau and slope = f' - s/tau^2 at the roots
    sel, and (rest, slope) are their values at the starting tau (pass 0).
    A step solves a model that keeps the origin pole exact and fits f and f'
    at tau with one more pole at the other end of the gap (offset other),
    or with a line on the outer half-lines (other = +-inf).  A step that
    leaves the bracket bisects it instead.  A root whose last step moved it
    by at most STOP |tau| is done.  Returns tau and f' at the roots.
    """
    out = np.empty_like(tau)
    moved = np.full(tau.size, np.inf)
    todo = np.arange(tau.size)
    for passes in range(MAX_PASSES):
        if passes:
            rest, slope = evaluate(todo, tau[todo])
        x, s = tau[todo], weight[todo]
        f = rest - s / x
        done = (np.abs(moved[todo]) <= STOP * np.abs(x)) | (f == 0.0)
        out[todo[done]] = slope[done] + s[done] / x[done] ** 2
        keep = ~done
        todo, x, s, f, rest, slope = (a[keep] for a in (todo, x, s, f, rest, slope))
        if not todo.size:
            return tau, out
        step = _fixed_weight_step(x, s, rest, slope, other[todo])
        lo[todo] = np.where(f < 0.0, x, lo[todo])
        hi[todo] = np.where(f > 0.0, x, hi[todo])
        inside = (lo[todo] <= step) & (step <= hi[todo])
        step = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
        moved[todo] = step - x
        tau[todo] = step
    raise IntegrationError(
        f"bath root solve used up its budget of {MAX_PASSES} passes with "
        f"{todo.size} of {tau.size} roots still moving")


def _fixed_weight_step(x, s, rest, slope, other):
    """The root of the model of f fitted at x, on the side of x.

    Between poles the model is A - s/u - s_f/(u - other): the origin pole
    keeps its weight s, and A and s_f fit f and f' at x.  On an outer
    half-line it is A + B u - s/u.  Both are s/u = h(u) with
    h(u) = rest + slope (u - x) r(u), r = (x - other)/(u - other) or 1.
    Times m(u) = u (u - other), or m(u) = u, the model is a quadratic in
    d = u - x with constant term m(x) f and linear term m'(x) f + m(x) f',
    so its small root is as accurate as f; of its roots, the nearest one in
    the direction of -f is the model's root in the gap.  A step that lands
    much closer to the origin pole than x would lose u to cancellation in
    x + d, so there u = s/h(u) is taken instead.
    """
    f = rest - s / x
    finite = np.isfinite(other)
    gap = np.where(finite, x - other, 1.0)
    m = x * gap
    a = np.where(finite, rest + slope * gap, slope)
    c = m * f
    b = np.where(finite, x + gap, 1.0) * f + m * (slope + s / x ** 2)
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    near = c / q
    d = np.where(near * f <= 0.0, near, q / a)
    u = x + d
    ratio = np.where(finite, gap / (u - other), 1.0)
    return np.where(np.abs(u) < 0.5 * np.abs(x),
                    s / (rest + slope * d * ratio), u)


def _far_field(z2: np.ndarray, h: float) -> np.ndarray:
    """F[j, o] = sum over |m| > NEAR of z2[o + m] / (m h)^(j + 1), j < TERMS.

    For a root at d[o] + tau these give the comb's far sum
    sum z2[k] / (tau - (d[k] - d[o])) = -sum_j tau^j F[j, o].  Each row is a
    linear convolution of z2 with the kernel (m h)^-(j+1), taken by FFT over
    at least 2n - 1 points, so the outputs kept see no wrap-around.  The
    rows are built, transformed and kept one at a time, so memory beyond the
    result stays at one kernel and its spectrum.
    """
    n = z2.size
    m = np.arange(n - 1, -n, -1)
    inverse = np.zeros(m.size)
    far = np.abs(m) > NEAR
    inverse[far] = 1.0 / (m[far] * h)
    size = 1 << (2 * n - 2).bit_length()
    signal = np.fft.rfft(z2, size)
    result = np.empty((TERMS, n))
    kernels = itertools.accumulate(itertools.repeat(inverse, TERMS), np.multiply)
    for row, kernel in zip(result, kernels):
        # signal stays the first factor: numpy's complex product rounds
        # a * b and b * a differently.
        spectrum = np.fft.rfft(kernel, size)
        np.multiply(signal, spectrum, out=spectrum)
        row[:] = np.fft.irfft(spectrum, size)[n - 1:2 * n - 1]
    return result
