"""Data-parallel correlation of baseband measurements against candidate
points.

For every candidate point and carrier the engine forms the mean residual
phasor over all TX-RX pairs: measurement times conjugated hypothesis,
averaged. The hypothesis of a pair factorizes into a TX phasor and an RX
phasor, so per carrier the pair sum is the row sum of (E_tx @ D) * E_rx:
one (points x T) by (T x R) complex GEMM over one-way distance tables (T + R
distances per point instead of T*R), an elementwise product, and a GEMV
against a vector of ones, which writes the row sums straight into the
output's carrier column. numpy's ``sum(axis=1)`` reduces pairwise row by
row at about 30 ns a row: on a 16 x 16-pair block that was 22 % of the
block, nearly as much as its 16 GEMMs. The tables are built axis by axis as
sqrt((dx*dx + dy*dy) + dz*dz) on (points x T) arrays. That is the summation
order of ``np.linalg.norm``, so the bits are the same without its
(points x T x 3) temporary. Points go through the GEMM in blocks of a fixed
256 rows, zero-padded at the end, with block boundaries at multiples of 256
of the global point index; each worker takes a contiguous run of whole
blocks. BLAS therefore sees the same GEMM and GEMV shapes for every point,
and the result is bit-identical no matter how candidates are split across
workers or BLAS threads.

The phasor tables, not the GEMM, dominate a block: complex ``exp`` costs
about 30 ns an element. The correlator therefore takes no ``exp``.
``_turn_phasors`` reduces theta = b*d by the nearest multiple k of
2 pi/1024 (a three-part Cody-Waite split), looks up exp(2 pi j k/1024) in
``_TURN``, a 1024-entry table built at import, and multiplies it by
1 + (cos r - 1) + j sin r for the remainder |r| <= pi/1024, each a short
polynomial. Against mpmath's exp(j theta) over d in [0, 3] m at every
bundled carrier the worst absolute error is 1.6e-16 (1.1e-16 for
``np.exp``), and d = 0 gives exactly 1 + 0j. Every element is computed on
its own, so its bits do not depend on the block it sits in. The lookup is
``np.take`` with ``mode="clip"``: the indices are already reduced to
[0, 1023], so clipping changes none, and numpy writes straight into the
table, where the default ``mode="raise"`` buffers ``out`` (a table-sized
allocation and copy per call). A 256 x 94 table takes 155 us, 6.4 ns an
element (``np.exp``: 593 us), on one thread of an AVX-512 Xeon. The range
is |b*d| < 2**27 * 2 pi/1024 = 8.2e5 rad (d below about 480 m at 82 GHz),
where k*_C1 and k*_C2 stay exact. The 1e-12 nested-loop oracle holds only
to a few metres, for ``np.exp`` too, since theta = b*d itself rounds to
its ulp: 8 x 8 pairs at the 10.0 pair read 1.1e-12 at 3 m and 1.0e-10 at
100 m for both. Each worker of ``mean_pair_phasors`` allocates its
buffers once per call: the kernel's scratch, a distance table and two
phasor tables per side, the GEMM output and the GEMV's ones. Fresh block-sized
temporaries page-fault: a 2fsk call on the full array's 100 x 100 grid
took 21,500 minor faults with them and takes 1,500 now.

``carrier_phasors`` yields the tables of one distance table carrier by
carrier, for the correlator here (seeded by ``_turn_phasors``) and for the
forward model (with negative wavenumbers, seeded by ``phasor_table``, which
keeps the exact ``np.exp``: the simulator stands in for the physical
capture). When three or more carriers lie on a uniform grid (every f_k
within one ulp of the top carrier of f_0 + k*step, with the mean step
(f_last - f_0)/(F - 1)), only carrier 0 takes a seed table; each later
table is the previous one times one seed step table exp(j 2 pi step d / c),
so a table costs two seed passes for any F. The mean step, not f_1 - f_0,
keeps the rounding of a linspace-built f_1 out of the chain. Against phases
reduced mod 1 in exact rational arithmetic (desk array, 12 seeds of 6
points, carriers spanning 72-82 GHz), the worst relative error of the mean
pair phasors was 0.3e-13 to 1.4e-13 for F = 3, 16, 17, 64, 128 and 256.
Two carriers and non-uniform sets (2fsk, mm2fsk, the 3fsk triples) take a
seed table per carrier.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .signal_core import SPEED_OF_LIGHT, AntennaArray, BasebandTensor, FrequencySet, freeze

_BLOCK_ROWS = 256  # GEMM block height: fixed, so every point rounds the same way
_TURNS = 1024  # turn-table entries: reduced angles lie within pi/_TURNS
# 2 pi/_TURNS = _C1 + _C2 + _C3 to 1e-33 relative (Cody-Waite). _C1 and _C2
# carry 26 bits, so k*_C1 and k*_C2 are exact for |k| < 2**27 (|b*d| < 8e5).
_C1 = float.fromhex("0x1.921fb58p-8")
_C2 = float.fromhex("-0x1.dde974p-35")
_C3 = float.fromhex("0x1.1a62633145c07p-62")
EXACT_PHASE = 2**27 * 2 * np.pi / _TURNS  # the exact range: |b*d| below this keeps k*_C1 and k*_C2 exact


def _turn_table() -> np.ndarray:
    """exp(2 pi j k/_TURNS) for k < _TURNS. The angle is hi + lo: an exact
    two-sum of k*_C1 and k*_C2, plus k*_C3; so each entry is as accurate as
    ``np.cos`` and ``np.sin`` (within 2e-16 of the exact phasor)."""
    k = np.arange(_TURNS)
    hi = k * _C1 + k * _C2
    lo = ((k * _C1 - hi) + k * _C2) + k * _C3
    return (np.cos(hi) - np.sin(hi) * lo) + 1j * (np.sin(hi) + np.cos(hi) * lo)


_TURN = _turn_table()


@dataclass(frozen=True)
class CandidateGrid:
    """Regular lateral grid of candidate points with per-pixel depth priors.

    ``x`` runs along width (columns), ``y`` along height (rows), each
    finite, uniform and increasing; ``prior_depth[v, u]`` is the depth
    guess at (x[u], y[v]), NaN where a pixel has none. ``valid`` is
    derived, not passed: the read-only mask of finite priors.
    """

    x: np.ndarray            # (W,)
    y: np.ndarray            # (H,)
    prior_depth: np.ndarray  # (H, W)
    valid: np.ndarray = field(init=False)  # (H, W) bool, np.isfinite(prior_depth)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        prior = np.asarray(self.prior_depth, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise StructuralError("grid axes must be 1-D")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise StructuralError("grid axes must be finite")
        if prior.shape != (y.size, x.size):
            raise StructuralError("prior_depth must have shape (H, W)")
        for axis in (x, y):
            if axis.size > 1:
                steps = np.diff(axis)
                if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12) or steps[0] <= 0:
                    raise StructuralError("grid spacing must be uniform and increasing")
        freeze(self, x=x, y=y, prior_depth=prior, valid=np.isfinite(prior))

    @property
    def width(self) -> int:
        return self.x.size

    @property
    def height(self) -> int:
        return self.y.size

    @property
    def spacing(self) -> tuple:
        dx = float(self.x[1] - self.x[0]) if self.width > 1 else 0.0
        dy = float(self.y[1] - self.y[0]) if self.height > 1 else 0.0
        return dx, dy

    @classmethod
    def regular(cls, width: int, height: int, spacing: float, center=(0.0, 0.0)) -> "CandidateGrid":
        """Geometry-only grid centered on the aperture; no priors yet."""
        if width < 1 or height < 1 or spacing <= 0.0:
            raise StructuralError("grid needs positive dimensions and spacing")
        x = center[0] + (np.arange(width) - (width - 1) / 2.0) * spacing
        y = center[1] + (np.arange(height) - (height - 1) / 2.0) * spacing
        return cls(x, y, np.full((height, width), np.nan))

    def with_scalar_prior(self, depth: float) -> "CandidateGrid":
        """Broadcast one depth guess to every pixel (the radar-only mode)."""
        if not (np.isfinite(depth) and depth > 0):
            raise StructuralError("scalar prior depth must be finite and positive")
        return self.with_prior(np.full((self.height, self.width), float(depth)))

    def with_prior(self, prior_depth: np.ndarray) -> "CandidateGrid":
        """The same geometry with new priors; NaN marks a pixel without one."""
        return replace(self, prior_depth=prior_depth)

    def points(self) -> np.ndarray:
        """Valid candidates as (N, 3) rows in row-major pixel order."""
        gx, gy = np.meshgrid(self.x, self.y)
        m = self.valid
        return np.column_stack([gx[m], gy[m], self.prior_depth[m]])


def distance_table(p: np.ndarray, elements: np.ndarray, out=None, diff=None) -> np.ndarray:
    """Euclidean distances from each point of ``p`` (one ``(3,)`` point or
    ``(N, 3)`` rows) to each of the ``(M, 3)`` ``elements``, shape ``(M,)``
    or ``(N, M)``. They are built axis by axis as
    sqrt((dx*dx + dy*dy) + dz*dz) in two table-sized buffers, ``out`` and
    ``diff`` when given. That is the summation order of ``np.linalg.norm``
    over the last axis, so the bits match it without its (N, M, 3)
    temporary; since (a - b)**2 == (b - a)**2 exactly, swapping ``p`` and
    ``elements`` transposes the table bit for bit."""
    acc = np.subtract(p[..., 0, None], elements[:, 0], out=out)
    acc *= acc
    diff = np.empty_like(acc) if diff is None else diff
    for axis in (1, 2):
        np.subtract(p[..., axis, None], elements[:, axis], out=diff)
        diff *= diff
        acc += diff
    return np.sqrt(acc, out=acc)


def phasor_table(b: float, d: np.ndarray, out=None) -> np.ndarray:
    """exp(j*b*d) for a real wavenumber ``b`` and a distance table ``d``,
    into ``out`` when given: b*d goes into the imaginary half of a complex
    buffer whose real half is zeroed, and ``exp`` runs in place, so ``d`` is
    never promoted to complex. The bits equal ``np.exp(complex(0, b) * d)``
    except at d == 0 with b < 0 (the forward model's sign), which gives
    exp(-0j) for exp(+0j)."""
    out = np.empty(d.shape, dtype=np.complex128) if out is None else out
    out.real = 0.0
    np.multiply(d, b, out=out.imag)
    return np.exp(out, out=out)


def _uniform_step(carriers) -> float | None:
    """Mean carrier step (f_last - f_0)/(F - 1) when three or more carriers
    lie on a uniform grid: every f_k within one ulp of the top carrier of
    f_0 + k*step. None otherwise."""
    f = np.asarray(carriers, dtype=np.float64)
    if f.size < 3:
        return None
    step = (f[-1] - f[0]) / (f.size - 1)
    if np.abs(f - (f[0] + np.arange(f.size) * step)).max() > np.spacing(f[-1]):
        return None
    return step


def carrier_wavenumbers(freqs: FrequencySet, sign: float = 1.0) -> tuple:
    """Wavenumbers for ``carrier_phasors``: sign * 2 pi f_k / c for every
    carrier of ``freqs``, and sign * 2 pi step / c on a uniform set
    (``_uniform_step``), else None."""
    scale = sign * 2 * np.pi
    step = _uniform_step(freqs.frequencies)
    return (scale * np.asarray(freqs.frequencies) / SPEED_OF_LIGHT,
            None if step is None else scale * step / SPEED_OF_LIGHT)


def carrier_phasors(d: np.ndarray, wavenumbers, step_wavenumber: float | None, out, seed=phasor_table):
    """Yield exp(j*b_k*d) for each wavenumber b_k in turn, written into
    ``out``, a pair of complex tables shaped like ``d``. ``seed(b, d,
    table)`` writes the table of one wavenumber into ``table`` and returns
    it, an exact ``phasor_table`` by default. Without a ``step_wavenumber``
    each table is a seed table, in ``out[0]``. With one, only the first is;
    each later table is the previous one times the seed table exp(j*step*d)
    in ``out[1]``, updated in place. So a yielded table is valid only until
    the next one is drawn, and must not be written to."""
    table, step = out
    if step_wavenumber is None:
        yield from (seed(b, d, table) for b in wavenumbers)
        return
    seed(wavenumbers[0], d, table)
    seed(step_wavenumber, d, step)
    yield table
    for _ in wavenumbers[1:]:
        table *= step
        yield table


def _turn_phasors(b: float, d: np.ndarray, out: np.ndarray, scratch: tuple) -> np.ndarray:
    """exp(j*b*d) into ``out`` without complex ``exp``. theta = b*d (rounded
    as in ``phasor_table``) is split into k = rint(theta*_TURNS/(2 pi)) and
    r = theta - k*(_C1 + _C2 + _C3), |r| <= pi/_TURNS; then
    out = _TURN[k mod _TURNS] * (1 + (cos r - 1) + j sin r), with cos r - 1
    to degree 6 and sin r to degree 5 (truncation below 1e-21). No element
    depends on another, so its bits do not depend on where it sits in
    ``d``. ``scratch`` holds three float, one index and one complex flat
    buffer of at least ``d.size`` elements."""
    x, kf, t, k, s = (a[:d.size].reshape(d.shape) for a in scratch)
    np.multiply(d, b, out=x)
    np.rint(np.multiply(x, _TURNS / (2 * np.pi), out=kf), out=kf)
    np.copyto(k, kf, casting="unsafe")
    for part in (_C1, _C2, _C3):
        x -= np.multiply(kf, part, out=t)  # x: theta, then r
    np.take(_TURN, np.bitwise_and(k, _TURNS - 1, out=k), out=out, mode="clip")
    r2 = np.multiply(x, x, out=kf)
    np.multiply(r2, -1 / 720, out=t)
    t += 1 / 24
    t *= r2
    t -= 0.5
    np.multiply(t, r2, out=s.real)  # cos r - 1
    np.multiply(r2, 1 / 120, out=t)
    t -= 1 / 6
    t *= r2
    t *= x
    np.add(t, x, out=s.imag)  # sin r
    s *= out
    return np.add(out, s, out=out)


def mean_pair_phasors(
    points: np.ndarray,
    baseband: BasebandTensor,
    array: AntennaArray,
    freqs: FrequencySet,
    workers: int | None = None,
) -> np.ndarray:
    """Mean residual phasor of every candidate point at every carrier.

    Candidates are split into contiguous runs of whole 256-point blocks
    across a worker pool; the output is independent of the pool size.
    """
    baseband.check_consistent(array, freqs)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise StructuralError("points must be a (N, 3) array")
    n = pts.shape[0]
    n_blocks = -(-n // _BLOCK_ROWS)
    padded = np.zeros((n_blocks * _BLOCK_ROWS, 3))
    padded[:n] = pts
    cube = np.ascontiguousarray(np.moveaxis(baseband.data, -1, 0))  # (F, T, R): one carrier per GEMM
    n_t, n_r = array.n_tx, array.n_rx
    wavenumbers = carrier_wavenumbers(freqs)
    out = np.empty((padded.shape[0], len(freqs)), dtype=np.complex128)

    def run(lo: int, hi: int) -> None:
        # Every buffer is allocated once here and reused for every block.
        size = _BLOCK_ROWS * max(n_t, n_r)
        scratch = (np.empty(size), np.empty(size), np.empty(size), np.empty(size, dtype=np.intp),
                   np.empty(size, dtype=np.complex128))
        seed = partial(_turn_phasors, scratch=scratch)
        # Per side a distance table, whose diffs go to the kernel's first buffer (free until
        # a seed table), and two phasor tables. A diff buffer of its own, or both tables in
        # one (2, 256, n) stack, ran the desk-bp backprojection 0.6-2.6 % slower.
        sides = [(e, (np.empty((_BLOCK_ROWS, m)), scratch[0][:_BLOCK_ROWS * m].reshape(_BLOCK_ROWS, m)),
                  [np.empty((_BLOCK_ROWS, m), dtype=np.complex128) for _ in range(2)])
                 for e, m in ((array.tx_positions, n_t), (array.rx_positions, n_r))]
        gemm = np.empty((_BLOCK_ROWS, n_r), dtype=np.complex128)
        ones = np.ones(n_r, dtype=np.complex128)
        for start in range(lo * _BLOCK_ROWS, hi * _BLOCK_ROWS, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            # Both tables are drawn before the GEMM: drawing the RX table between
            # the GEMM and the product ran a 16-carrier block 3.5x slower (AVX-512 Xeon).
            tables = zip(*(carrier_phasors(distance_table(padded[rows], e, *dist), *wavenumbers, pair, seed)
                           for e, dist, pair in sides))
            for k, (e_tx, e_rx) in enumerate(tables):
                np.matmul(e_tx, cube[k], out=gemm)
                gemm *= e_rx
                np.matmul(gemm, ones, out=out[rows, k])  # GEMV: the row sums of the pair products
        out[lo * _BLOCK_ROWS:hi * _BLOCK_ROWS] /= n_t * n_r

    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(int(n_workers), n_blocks))
    if n_workers == 1:
        run(0, n_blocks)
        return out[:n]
    bounds = np.linspace(0, n_blocks, n_workers + 1).astype(int).tolist()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))  # list() re-raises a worker's exception
    return out[:n]


def correlate_grid(
    baseband: BasebandTensor,
    grid: CandidateGrid,
    array: AntennaArray,
    freqs: FrequencySet,
    workers: int | None = None,
) -> np.ndarray:
    """Mean residual phasors of every grid pixel at every carrier, as an
    (H, W, F) complex array.

    Only pixels with a prior are correlated; every other pixel is NaN, so
    ``grid.valid`` is the validity mask of the result.
    """
    if not grid.valid.any():
        raise InsufficientDataError("candidate grid has no valid pixels")
    out = np.full((grid.height, grid.width, len(freqs)), np.nan, dtype=np.complex128)
    out[grid.valid] = mean_pair_phasors(grid.points(), baseband, array, freqs, workers=workers)
    return out
