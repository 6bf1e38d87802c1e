"""Two-regime Diophantine conditions, frequency selection, and excluded-measure estimates.

A frequency omega passes at parameters p when

* |eps^(-a) <k, omega> + l| >= eps^(-a) * gamma / |k|^(d+1)       for k != 0,
  |k| + |l| <= K_split  (the resonant low-order regime), and
* |eps^(-a) <k, omega> + l| >= gamma / (1 + |k|)^(d+1)            for
  K_split < |k| + |l| <= K_check (the classical regime, checked on a finite
  window; beyond the window the divisor is dominated by |l| and grows).

The margin of a mode is |divisor| / bound, and a row's margin is the minimum
over the window.  With z = eps^(-a) <k, omega> and the nearest integer
l* = -rint(z), every other l has |z + l| >= 1/2 exactly in floating point:
z + l is one correctly rounded add, rounding is monotone and 1/2 is
representable.  Its margin is then at least 1/2 over the largest bound in the
k-chunk, again exactly, since each computed margin divides by one of those
computed bounds.  So ``_margins_for`` first folds in l* for every row; a row
whose minimum is now below that floor cannot take a mode at another l, and
only the rows at or above it replay the scan over l* - reach .. l* + reach
from their state before the chunk (reach is 3 once
gamma * max(eps^(-a), 1) >= 1.4, else 1).  The margins and worst modes, ties
included, are those of the full scan, bit for bit.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fourier import ball_modes
from .util import get_workers, spawn_rngs, write_csv

K_CHUNK = 2048  # k-modes per matmul in _margins_for
ROW_BLOCK = 16  # frequency rows per element-wise update (16 x 2048 doubles = 256 KB)
POINT_CHUNK = 1024  # scan points per _margins_for call in find_dc_point
MEASURE_BLOCKS = 16  # independent random substreams in excluded_measure


@dataclass
class DiophantineParams:
    """Parameters of the two-regime small-divisor condition.

    The default eps = a = 1 is the unscaled condition, eps^(-a) = 1.
    """

    d: int
    gamma: float
    K_split: int
    K_check: int
    eps: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.K_check < self.K_split:
            raise ValueError("K_check must be at least K_split")

    @property
    def eps_pow(self):
        return self.eps ** (-self.a)

    def bound_regime1(self, knorm):
        return self.eps_pow * self.gamma / knorm ** (self.d + 1)

    def bound_regime2(self, knorm):
        return self.gamma / (1.0 + knorm) ** (self.d + 1)


def _k_enumeration(d, K):
    """Nonzero k with |k|_1 <= K, one representative per {k, -k} pair.

    The canonical order of ``ball_modes`` is lexicographic and reverses under
    negation, so the modes after the middle (zero) row are exactly those whose
    first nonzero entry is positive.
    """
    ks = ball_modes(d - 1, K)
    return ks[ks.shape[0] // 2 + 1:]


@dataclass
class DcReport:
    """Outcome of a Diophantine check at one frequency."""

    ok: bool
    margin: float
    worst_mode: tuple
    n_checked: int
    omega: np.ndarray


def _fold_modes(best, worst, z, lc, kk, knorm, b1, b2, p):
    """Fold the modes (k, lc) of one k-chunk into the running minimum, in place.

    ``best``/``worst`` are the rows' running margin and worst mode; ``z`` holds
    eps^(-a) <k, omega> and ``lc`` the l paired with each (row, k).  A row takes
    its chunk minimum (first k on ties) only when it is strictly below ``best``.
    """
    order = knorm + np.abs(lc)
    margin = np.abs(z + lc)
    margin /= np.where(order <= p.K_split, b1, b2)
    margin[order > p.K_check] = np.inf
    flat = np.argmin(margin, axis=1)
    rows = np.arange(margin.shape[0])
    vals = margin[rows, flat]
    upd = vals < best
    if np.any(upd):
        best[upd] = vals[upd]
        worst[upd, : p.d] = kk[flat[upd]]
        worst[upd, p.d] = lc[rows, flat][upd].astype(np.int64)


def _margins_for(omegas, p):
    """Worst margin (min over modes of |divisor| / bound) for each frequency row.

    Returns (margins, worst_modes) where worst_modes is an int array (N, d+1).
    The l = -rint(z) pass runs on every row; the full ``off = -reach..reach``
    scan reruns only on rows it leaves at or above the chunk's floor (see the
    module docstring), so the result equals that of the full scan bit for bit.
    """
    omegas = np.atleast_2d(np.asarray(omegas, dtype=float))
    N = omegas.shape[0]
    ks = _k_enumeration(p.d, p.K_check)
    best = np.full(N, np.inf)
    worst = np.zeros((N, p.d + 1), dtype=np.int64)
    # Any l beyond the three nearest integers has |divisor| >= 3/2, hence a
    # margin of at least 1.5 / (gamma * max(eps^(-a), 1)); wider scans only
    # matter when gamma is so large that the condition is vacuous anyway.
    reach = 1 if p.gamma * max(p.eps_pow, 1.0) < 1.4 else 3
    for lo in range(0, ks.shape[0], K_CHUNK):
        kk = ks[lo: lo + K_CHUNK]
        knorm = np.abs(kk).sum(axis=1).astype(float)
        b1 = p.bound_regime1(knorm)
        b2 = p.bound_regime2(knorm)
        floor = 0.5 / max(b1.max(), b2.max())
        z = p.eps_pow * (omegas @ kk.T)  # (N, C)
        lstar = -np.rint(z)
        for r in range(0, N, ROW_BLOCK):
            blk = slice(r, r + ROW_BLOCK)
            saved = best[blk].copy(), worst[blk].copy()
            _fold_modes(best[blk], worst[blk], z[blk], lstar[blk], kk, knorm, b1, b2, p)
            again = np.flatnonzero(best[blk] >= floor)
            if again.size:
                # another l may still win: replay the full scan from the saved state
                rows = r + again
                b, w = saved[0][again], saved[1][again]
                for off in range(-reach, reach + 1):
                    _fold_modes(b, w, z[rows], lstar[rows] + off, kk, knorm, b1, b2, p)
                best[rows], worst[rows] = b, w
    return best, worst


def check_dc(omega, p):
    """Check the two-regime condition for one frequency on the finite window."""
    omega = np.asarray(omega, dtype=float)
    margins, worst = _margins_for(omega[None, :], p)
    ks = _k_enumeration(p.d, p.K_check)
    n_modes = int(ks.shape[0])
    return DcReport(
        ok=bool(margins[0] >= 1.0),
        margin=float(margins[0]),
        worst_mode=tuple(int(x) for x in worst[0]),
        n_checked=n_modes,
        omega=omega,
    )


def find_dc_point(omega_of, box, p, grid):
    """Scan an action box for the point whose frequency has the largest DC margin.

    Parameters
    ----------
    omega_of : callable
        Maps an (N, dim) array of actions to (N, d) frequencies.
    box : (lo, hi) pair of length-dim sequences.
    grid : int
        Points per axis for the scan.

    Returns
    -------
    (point, omega, report, records) where records is a list of per-point rows
    (action..., omega..., margin, worst k..., worst l) suitable for CSV export.
    Ties in the margin break lexicographically on the grid point.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    dim = lo.size
    axes = [np.linspace(lo[j], hi[j], grid) for j in range(dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    omegas = np.asarray(omega_of(pts), dtype=float)
    margins = np.empty(pts.shape[0])
    worsts = np.empty((pts.shape[0], p.d + 1), dtype=np.int64)
    for s in range(0, pts.shape[0], POINT_CHUNK):
        e = min(pts.shape[0], s + POINT_CHUNK)
        margins[s:e], worsts[s:e] = _margins_for(omegas[s:e], p)
    best = int(np.argmax(margins))  # argmax returns the first (lexicographic) maximizer
    records = [
        list(pts[i]) + list(omegas[i]) + [margins[i]] + list(worsts[i])
        for i in range(pts.shape[0])
    ]
    report = DcReport(
        ok=bool(margins[best] >= 1.0),
        margin=float(margins[best]),
        worst_mode=tuple(int(x) for x in worsts[best]),
        n_checked=int(_k_enumeration(p.d, p.K_check).shape[0]),
        omega=omegas[best],
    )
    return pts[best], omegas[best], report, records


def margin_map_csv(path, records, dim, d, comment=None):
    cols = ([f"I_{j + 1}" for j in range(dim)] + [f"omega_{j + 1}" for j in range(d)]
            + ["margin"] + [f"worst_k_{j + 1}" for j in range(d)] + ["worst_l"])
    write_csv(path, cols, records, comment=comment)


def excluded_measure(p, box, n_samples, seed=0):
    """Monte-Carlo estimate of the excluded-frequency fraction over a box.

    Samples frequencies uniformly, counts DC failures, and returns
    (fraction, half_width) where half_width is the 95% binomial confidence
    half-interval.  Blocks get independent deterministic substreams, so the
    result does not depend on the worker-thread count.
    """
    if n_samples < 1000:
        raise ValueError("use at least 1000 samples for a meaningful estimate")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rngs = spawn_rngs(seed, MEASURE_BLOCKS)
    sizes = np.full(MEASURE_BLOCKS, n_samples // MEASURE_BLOCKS)
    sizes[: n_samples % MEASURE_BLOCKS] += 1

    def run_block(args):
        rng, size = args
        om = rng.uniform(lo, hi, size=(size, lo.size))
        margins, _ = _margins_for(om, p)
        return int(np.sum(margins < 1.0))

    workers = get_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            fails = list(ex.map(run_block, zip(rngs, sizes)))
    else:
        fails = [run_block(args) for args in zip(rngs, sizes)]
    n_fail = sum(fails)
    frac = n_fail / n_samples
    half = 1.96 * np.sqrt(max(frac * (1 - frac), 1.0 / n_samples) / n_samples)
    return frac, half
