import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mmfsk import (
    SPEED_OF_LIGHT,
    AntennaArray,
    BasebandTensor,
    CandidateGrid,
    FrequencySet,
    Scene,
    correlate_grid,
    mean_pair_phasors,
    mimo_cross_array,
    simulate_baseband,
)
from mmfsk.correlate import _turn_phasors, _uniform_step, distance_table, phasor_table
from mmfsk.errors import InsufficientDataError, StructuralError
from mmfsk.signal_core import FREQUENCY_PAIRS


def reference_correlation(baseband, grid, array, freqs):
    """Independent oracle: five nested loops, plain sequential accumulation."""
    out = np.full((grid.height, grid.width, len(freqs)), np.nan, dtype=np.complex128)
    for v in range(grid.height):
        for u in range(grid.width):
            if not grid.valid[v, u]:
                continue
            p = np.array([grid.x[u], grid.y[v], grid.prior_depth[v, u]])
            for k, f in enumerate(freqs.frequencies):
                acc = 0j
                for t in range(array.n_tx):
                    for r in range(array.n_rx):
                        rho = np.linalg.norm(array.tx_positions[t] - p) + np.linalg.norm(
                            p - array.rx_positions[r]
                        )
                        acc += baseband.data[t, r, k] * np.exp(2j * np.pi * f * rho / SPEED_OF_LIGHT)
                out[v, u, k] = acc / array.n_pairs
    return out


def distance_tables(p, array):
    """``distance_table`` from one point or an (N, 3) batch to the TX and
    to the RX elements."""
    p = np.asarray(p, dtype=np.float64)
    return distance_table(p, array.tx_positions), distance_table(p, array.rx_positions)


def norm_distance_tables(p, array):
    """Distance-table reference: ``np.linalg.norm`` over (..., T, 3)
    differences."""
    p = np.expand_dims(np.asarray(p, dtype=np.float64), -2)
    return np.linalg.norm(array.tx_positions - p, axis=-1), np.linalg.norm(p - array.rx_positions, axis=-1)


def reference_phasor_block(points, cube, array, carriers):
    """The block kernel with an exact ``exp`` per carrier and table."""
    n_f, n_t, n_r = cube.shape
    dtx, drx = distance_tables(points, array)
    out = np.empty((points.shape[0], n_f), dtype=np.complex128)
    for k, f in enumerate(carriers):
        w = 2j * np.pi * f / SPEED_OF_LIGHT
        out[:, k] = ((np.exp(w * dtx) @ cube[k]) * np.exp(w * drx)).sum(axis=1)
    return out / (n_t * n_r)


def exact_phase_reference(points, baseband, array, freqs):
    """Mean pair phasors whose phases f*d/c are reduced mod 1 in exact
    rational arithmetic before the complex exp, so the only rounding left is
    that of the reduced phase, the products and the pair sum."""
    c = Fraction(SPEED_OF_LIGHT)
    dtx, drx = distance_tables(points, array)

    def phasors(dists, f):
        turns = [float(Fraction(f) * Fraction(float(d)) / c % 1) for d in dists.ravel()]
        return np.exp(2j * np.pi * np.array(turns)).reshape(dists.shape)

    out = np.empty((points.shape[0], len(freqs)), dtype=np.complex128)
    for k, f in enumerate(freqs.frequencies):
        out[:, k] = ((phasors(dtx, f) @ baseband.data[..., k]) * phasors(drx, f)).sum(axis=1)
    return out / array.n_pairs


def turn_scratch(n):
    """The scratch buffers ``_turn_phasors`` takes for ``n`` elements."""
    return np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=np.intp), np.empty(n, dtype=np.complex128)


def turn_phasors(b, d):
    """``_turn_phasors`` with freshly allocated buffers."""
    return _turn_phasors(b, d, np.empty(d.shape, dtype=np.complex128), turn_scratch(d.size))


def random_baseband(rng, array, n_f):
    data = rng.normal(size=(array.n_tx, array.n_rx, n_f, 2))
    return BasebandTensor(data[..., 0] + 1j * data[..., 1])


def random_instance(seed, n_uniform=None):
    """Random array, grid and baseband; random carriers, or ``n_uniform``
    carriers from np.linspace(72e9, 82e9, n_uniform)."""
    rng = np.random.default_rng(seed)
    n_tx, n_rx = rng.integers(2, 9, 2)
    array = mimo_cross_array(int(n_tx), int(n_rx), 0.05)
    w, h = rng.integers(3, 17, 2)
    grid = CandidateGrid.regular(int(w), int(h), 0.002).with_scalar_prior(0.3 + 0.05 * rng.random())
    n_f = int(rng.integers(1, 5))
    freqs = FrequencySet(tuple(np.sort(rng.uniform(70e9, 84e9, n_f))))
    if n_uniform is not None:
        n_f = n_uniform
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, n_f)))
    return random_baseband(rng, array, n_f), grid, array, freqs


def single_target(pos):
    return Scene(np.asarray([pos], dtype=float), np.ones(1, complex), np.zeros(1))


class TestCorrelateGrid:
    def test_prior_at_target_gives_unit_phasor(self, desk_array):
        freqs = FrequencySet((72e9, 82e9))
        target = (0.002, -0.001, 0.305)
        bb = simulate_baseband(single_target(target), desk_array, freqs)
        grid = CandidateGrid(
            np.array([target[0]]), np.array([target[1]]),
            np.array([[target[2]]]),
        )
        phasors = correlate_grid(bb, grid, desk_array, freqs)
        assert np.abs(phasors[0, 0] - 1.0).max() < 1e-9

    def test_small_offset_phase_in_far_field(self, tiny_array):
        # Prior 0.5 mm short of the target at long range: the mean phasor's
        # angle approaches the ideal two-way phase shift.
        freqs = FrequencySet((72e9, 82e9))
        delta = 0.0005
        target = (0.0, 0.0, 1.0 + delta)
        bb = simulate_baseband(single_target(target), tiny_array, freqs)
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(1.0)
        phasors = correlate_grid(bb, grid, tiny_array, freqs)
        for k, f in enumerate(freqs.frequencies):
            want = -2 * np.pi * f * 2 * delta / SPEED_OF_LIGHT
            got = np.angle(phasors[0, 0, k])
            got_wrapped = (got - want + np.pi) % (2 * np.pi) - np.pi
            assert abs(got_wrapped) < 0.01 * abs(want)

    @pytest.mark.parametrize(
        "seed, n_uniform",
        [pytest.param(s, None, id=str(s)) for s in range(4)] + [pytest.param(4, 16, id="linspace16")],
    )
    def test_matches_nested_loop_reference(self, seed, n_uniform):
        baseband, grid, array, freqs = random_instance(seed, n_uniform)
        got = correlate_grid(baseband, grid, array, freqs)
        want = reference_correlation(baseband, grid, array, freqs)
        scale = np.abs(want[np.isfinite(want)]).max()
        assert np.abs(got - want)[grid.valid].max() / scale < 1e-12

    def test_reference_at_full_contract_size(self):
        # 8x8 pairs, 32x32 candidates, two carriers
        rng = np.random.default_rng(99)
        array = mimo_cross_array(8, 8, 0.06)
        grid = CandidateGrid.regular(32, 32, 0.002).with_scalar_prior(0.31)
        freqs = FrequencySet((72e9, 82e9))
        data = rng.normal(size=(8, 8, 2, 2))
        baseband = BasebandTensor(data[..., 0] + 1j * data[..., 1])
        got = correlate_grid(baseband, grid, array, freqs)
        want = reference_correlation(baseband, grid, array, freqs)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() / scale < 1e-12

    def test_worker_count_does_not_change_bits(self):
        baseband, grid, array, freqs = random_instance(7)
        outs = [correlate_grid(baseband, grid, array, freqs, workers=w) for w in (1, 2, 5)]
        assert np.array_equal(outs[0], outs[1], equal_nan=True)
        assert np.array_equal(outs[0], outs[2], equal_nan=True)

    def test_invalid_pixels_are_skipped(self, tiny_array):
        freqs = FrequencySet((76e9,))
        bb = simulate_baseband(single_target((0, 0, 0.3)), tiny_array, freqs)
        grid = CandidateGrid.regular(4, 4, 0.002).with_scalar_prior(0.3)
        valid = grid.valid.copy()
        valid[0, :] = False
        grid = grid.with_prior(np.where(valid, grid.prior_depth, np.nan))
        phasors = correlate_grid(bb, grid, tiny_array, freqs)
        assert np.isnan(phasors[0]).all()
        assert np.isfinite(phasors[1:]).all()

    def test_no_valid_pixels_rejected(self, tiny_array):
        freqs = FrequencySet((76e9,))
        bb = simulate_baseband(single_target((0, 0, 0.3)), tiny_array, freqs)
        grid = CandidateGrid.regular(4, 4, 0.002)
        with pytest.raises(InsufficientDataError):
            correlate_grid(bb, grid, tiny_array, freqs)

    def test_dimension_mismatch_rejected(self, tiny_array):
        freqs = FrequencySet((76e9, 77e9))
        bb = simulate_baseband(single_target((0, 0, 0.3)), tiny_array, FrequencySet((76e9,)))
        grid = CandidateGrid.regular(2, 2, 0.002).with_scalar_prior(0.3)
        with pytest.raises(StructuralError):
            correlate_grid(bb, grid, tiny_array, freqs)

    def test_unit_scene_mean_phasor_bounded(self):
        # Triangle inequality: averaging unit-magnitude terms cannot exceed 1.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            array = mimo_cross_array(4, 4, 0.05)
            freqs = FrequencySet((76e9,))
            bb = simulate_baseband(single_target(tuple(rng.uniform(-0.01, 0.01, 2)) + (0.3,)), array, freqs)
            grid = CandidateGrid.regular(8, 8, 0.003).with_scalar_prior(0.3)
            phasors = correlate_grid(bb, grid, array, freqs)
            assert np.abs(phasors[grid.valid]).max() <= 1.0 + 1e-12

    def test_peak_at_target_pixel(self, desk_array):
        freqs = FrequencySet((72e9, 82e9))
        target = (0.007, -0.012, 0.30)
        bb = simulate_baseband(single_target(target), desk_array, freqs)
        grid = CandidateGrid.regular(32, 32, 0.002).with_scalar_prior(0.30)
        mag = np.abs(correlate_grid(bb, grid, desk_array, freqs)).mean(axis=-1)
        v, u = np.unravel_index(mag.argmax(), mag.shape)
        assert abs(grid.x[u] - target[0]) <= 0.001 + 1e-12
        assert abs(grid.y[v] - target[1]) <= 0.001 + 1e-12

    def test_shift_covariance_monostatic_exact(self, monostatic):
        # On-axis, a common depth shift of scene and prior leaves magnitudes
        # unchanged; the differential phasor wraps identically.
        freqs = FrequencySet((72e9, 82e9))
        rng = np.random.default_rng(0)
        scene = Scene(
            np.column_stack([np.zeros(5), np.zeros(5), 0.3 + rng.uniform(-0.005, 0.005, 5)]),
            np.exp(1j * rng.uniform(-np.pi, np.pi, 5)),
            np.zeros(5),
        )
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(0.302)
        base = correlate_grid(simulate_baseband(scene, monostatic, freqs), grid, monostatic, freqs)
        shift = 0.0123
        moved = Scene(scene.positions + [0, 0, shift], scene.reflectivities, scene.phase_offsets)
        grid2 = grid.with_scalar_prior(0.302 + shift)
        shifted = correlate_grid(simulate_baseband(moved, monostatic, freqs), grid2, monostatic, freqs)
        assert np.abs(np.abs(shifted) - np.abs(base)).max() < 1e-9

    def test_shift_covariance_far_field(self, tiny_array):
        freqs = FrequencySet((72e9, 82e9))
        scene = single_target((0.001, 0.0, 1.0))
        grid = CandidateGrid.regular(4, 4, 0.001).with_scalar_prior(1.0)
        base = correlate_grid(simulate_baseband(scene, tiny_array, freqs), grid, tiny_array, freqs)
        shift = 0.004
        moved = single_target((0.001, 0.0, 1.0 + shift))
        shifted = correlate_grid(
            simulate_baseband(moved, tiny_array, freqs),
            grid.with_scalar_prior(1.0 + shift), tiny_array, freqs,
        )
        # Off-axis pairs see slightly different path-length changes, so the
        # invariance is only approximate away from the monostatic axis.
        assert np.abs(np.abs(shifted) - np.abs(base)).max() < 1e-5


class TestDistanceTables:
    def test_coincident_element_is_zero(self):
        array = AntennaArray(np.array([[0.01, 0.0, 0.0]]), np.array([[0.0, 0.0, 0.0]]))
        tx_d, rx_d = distance_tables((0.01, 0.0, 0.0), array)
        assert tx_d[0] == 0.0 and rx_d[0] > 0

    def test_sums_reconstruct_round_trips(self, desk_array):
        rng = np.random.default_rng(1)
        p = rng.uniform(-0.05, 0.05, 3) + [0, 0, 0.3]
        tx_d, rx_d = distance_tables(p, desk_array)
        rho = tx_d[:, None] + rx_d[None, :]
        for t in (0, 7, 15):
            for r in (0, 9, 15):
                direct = np.linalg.norm(desk_array.tx_positions[t] - p) + np.linalg.norm(
                    desk_array.rx_positions[r] - p
                )
                assert rho[t, r] == pytest.approx(direct, rel=0, abs=0)

    def test_batch_rows_equal_single_points(self, desk_array):
        rng = np.random.default_rng(3)
        points = rng.uniform(-0.05, 0.05, (7, 3)) + [0, 0, 0.3]
        tx_d, rx_d = distance_tables(points, desk_array)
        assert tx_d.shape == (7, desk_array.n_tx) and rx_d.shape == (7, desk_array.n_rx)
        for p, tx_row, rx_row in zip(points, tx_d, rx_d):
            one_tx, one_rx = distance_tables(p, desk_array)
            assert np.array_equal(one_tx, tx_row) and np.array_equal(one_rx, rx_row)

    @pytest.mark.parametrize("case", ["point", "batch", "generic-array", "full-profile"])
    def test_equals_norm_reference(self, desk_array, case):
        rng = np.random.default_rng(8)
        array = desk_array
        if case == "point":
            p = rng.uniform(-0.05, 0.05, 3) + [0, 0, 0.3]
        elif case == "generic-array":
            # elements off the z=0 cross, with nonzero y and z on both sides
            array = AntennaArray(rng.uniform(-0.1, 0.1, (9, 3)), rng.uniform(-0.1, 0.1, (7, 3)))
            p = rng.uniform(-0.3, 0.3, (50, 3))
        else:
            if case == "full-profile":
                array = mimo_cross_array(94, 94, 0.5)
            p = rng.uniform(-0.1, 0.1, (300, 3)) + [0, 0, 0.3]
        tx_d, rx_d = distance_tables(p, array)
        ref_tx, ref_rx = norm_distance_tables(p, array)
        assert tx_d.shape == ref_tx.shape and rx_d.shape == ref_rx.shape
        assert np.array_equal(tx_d, ref_tx) and np.array_equal(rx_d, ref_rx)

    def test_caching_speedup(self):
        # One-way tables replace T*R per-pair norms with T+R distances; the
        # correlation kernel consumes the tables directly, so the benchmark
        # times the library's tables against the per-pair norms they remove.
        array = mimo_cross_array(94, 94, 0.5)
        rng = np.random.default_rng(2)
        points = rng.uniform(-0.1, 0.1, (256, 3)) + [0, 0, 0.4]
        tx, rx = array.tx_positions, array.rx_positions

        t0 = time.perf_counter()
        for _ in range(3):
            dt, dr = distance_tables(points, array)
        cached_time = time.perf_counter() - t0

        # Without the cache every (tx, rx) pair recomputes both of its norms.
        pair_tx = np.repeat(tx, array.n_rx, axis=0)  # (T*R, 3), tx-major
        pair_rx = np.tile(rx, (array.n_tx, 1))
        t0 = time.perf_counter()
        for _ in range(3):
            full = np.linalg.norm(points[:, None, :] - pair_tx[None], axis=-1) + np.linalg.norm(
                points[:, None, :] - pair_rx[None], axis=-1
            )
        naive_time = time.perf_counter() - t0

        cached = (dt[:, :, None] + dr[:, None, :]).reshape(len(points), array.n_pairs)
        assert np.abs(cached - full).max() < 1e-12
        assert naive_time >= 5.0 * cached_time


class TestPhasorTable:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["correlator", "forward-model"])
    def test_equals_complex_promotion(self, sign):
        rng = np.random.default_rng(9)
        d = rng.uniform(1e-4, 1.0, (256, 94))
        for f in (72e9, 77.3e9, 82e9):
            w = sign * 2j * np.pi * f / SPEED_OF_LIGHT
            assert np.array_equal(phasor_table(w.imag, d), np.exp(w * d))

    def test_zero_distance_keeps_sign_of_phase(self):
        d = np.array([0.0, 0.5])
        for sign in (1.0, -1.0):
            got = phasor_table(sign * 1500.0, d)
            assert got[0] == 1.0 and np.signbit(got[0].imag) == (sign < 0)

    def test_reused_buffer_gives_fresh_bits(self):
        # A buffer left holding an earlier table: its real half is not zero.
        rng = np.random.default_rng(10)
        d = rng.uniform(0.0, 1.0, (256, 94))
        for sign in (1.0, -1.0):
            out = phasor_table(1700.0, d + 0.25)
            assert np.all(out.real != 0.0)
            got = phasor_table(sign * 1500.0, d, out=out)
            assert got is out and np.array_equal(got, phasor_table(sign * 1500.0, d))


class TestTurnPhasors:
    # Every bundled carrier, and the step of the 16-carrier uniform set.
    WAVENUMBERS = [2 * np.pi * f / SPEED_OF_LIGHT
                   for f in sorted({*np.ravel(list(FREQUENCY_PAIRS.values())), 10e9 / 15})]

    def test_matches_high_precision_exp(self):
        rng = np.random.default_rng(12)
        d = np.concatenate([np.linspace(0.0, 3.0, 1501), rng.uniform(0.0, 3.0, 1500)])
        worst = 0.0
        with mpmath.workdps(40):
            for b in self.WAVENUMBERS:
                theta = d * b  # the kernel's own rounding of b*d
                want = np.array([complex(mpmath.expj(mpmath.mpf(float(t)))) for t in theta])
                worst = max(worst, np.abs(turn_phasors(b, d) - want).max())
        assert worst <= 1e-15

    def test_zero_distance_is_exactly_one(self):
        for b in self.WAVENUMBERS:
            got = turn_phasors(b, np.zeros(5))
            assert np.all(got == 1.0) and not np.signbit(got.imag).any()

    def test_bits_do_not_depend_on_position(self):
        # What keeps --workers and BLAS threads from changing the bytes.
        rng = np.random.default_rng(13)
        d = rng.uniform(0.25, 1.2, (256, 94))
        order = rng.permutation(d.size)
        for b in self.WAVENUMBERS:
            block = turn_phasors(b, d)
            assert np.array_equal(turn_phasors(b, d[7:8]), block[7:8])
            assert np.array_equal(turn_phasors(b, d.ravel()[order]), block.ravel()[order])

    def test_negative_wavenumbers_match_exp(self):
        # The forward model's sign gives negative k: the table index must
        # wrap to k mod 1024 before the gather, whose mode="clip" would pin
        # every negative index to entry 0.
        rng = np.random.default_rng(14)
        d = np.concatenate([np.linspace(0.0, 3.0, 30001), rng.uniform(0.0, 3.0, 30000)])
        worst = max(np.abs(turn_phasors(-b, d) - np.exp(1j * (d * -b))).max() for b in self.WAVENUMBERS)
        assert worst <= 1.6e-16

    def test_gather_writes_into_the_table(self):
        # np.take's default mode="raise" buffers ``out``: a table-sized
        # allocation and copy (385,872 B on this block) per call.
        d = np.random.default_rng(15).uniform(0.25, 1.2, (256, 94))
        out, scratch = np.empty(d.shape, dtype=np.complex128), turn_scratch(d.size)
        _turn_phasors(self.WAVENUMBERS[0], d, out, scratch)
        tracemalloc.start()
        try:
            _turn_phasors(self.WAVENUMBERS[0], d, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestMeanPairPhasors:
    def test_rejects_bad_points_shape(self, tiny_array):
        freqs = FrequencySet((76e9,))
        bb = simulate_baseband(single_target((0, 0, 0.3)), tiny_array, freqs)
        with pytest.raises(StructuralError):
            mean_pair_phasors(np.zeros((3, 2)), bb, tiny_array, freqs)

    def test_block_boundaries_do_not_matter(self):
        baseband, grid, array, freqs = random_instance(11)
        pts = grid.points()
        whole = mean_pair_phasors(pts, baseband, array, freqs, workers=1)
        split = np.vstack([
            mean_pair_phasors(pts[:5], baseband, array, freqs, workers=1),
            mean_pair_phasors(pts[5:], baseband, array, freqs, workers=1),
        ])
        assert np.array_equal(whole, split)

    def test_padded_blocks_make_splits_and_workers_irrelevant(self):
        # 600 points span three 256-row GEMM blocks, the last one padded.
        rng = np.random.default_rng(5)
        array = mimo_cross_array(5, 6, 0.05)
        grid = CandidateGrid.regular(30, 20, 0.002).with_scalar_prior(0.31)
        freqs = FrequencySet((72e9, 77e9, 82e9))
        data = rng.normal(size=(array.n_tx, array.n_rx, 3, 2))
        baseband = BasebandTensor(data[..., 0] + 1j * data[..., 1])
        pts = grid.points()
        whole = mean_pair_phasors(pts, baseband, array, freqs, workers=1)
        for w in (2, 3):
            assert np.array_equal(whole, mean_pair_phasors(pts, baseband, array, freqs, workers=w))
        for cut in (5, 257, 511):
            split = np.vstack([
                mean_pair_phasors(pts[:cut], baseband, array, freqs, workers=1),
                mean_pair_phasors(pts[cut:], baseband, array, freqs, workers=2),
            ])
            assert np.array_equal(whole, split)
        want = reference_correlation(baseband, grid, array, freqs)[grid.valid]
        assert np.abs(whole - want).max() / np.abs(want).max() < 1e-12

    def test_desk_bp_shape_is_worker_independent_and_exact(self, desk_array):
        # The desk-bp call: 16x16 pairs at the 16 uniform carriers, each
        # carrier's pair sums one GEMV. 600 points span three 256-row
        # blocks, the last one padded.
        rng = np.random.default_rng(29)
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 16)))
        baseband = random_baseband(rng, desk_array, len(freqs))
        grid = CandidateGrid.regular(30, 20, 0.002).with_prior(rng.uniform(0.28, 0.32, (20, 30)))
        pts = grid.points()
        whole = mean_pair_phasors(pts, baseband, desk_array, freqs, workers=1)
        for w in (2, 3):
            assert np.array_equal(whole, mean_pair_phasors(pts, baseband, desk_array, freqs, workers=w))
        # the nested-loop oracle at both ends of every block (point i is pixel i)
        keep = np.zeros(grid.valid.shape, dtype=bool)
        keep.flat[[0, 255, 256, 511, 512, 599]] = True
        sparse = grid.with_prior(np.where(keep, grid.prior_depth, np.nan))
        want = reference_correlation(baseband, sparse, desk_array, freqs)[keep]
        assert np.abs(whole[keep.ravel()] - want).max() / np.abs(want).max() < 1e-12

    def test_blas_thread_count_does_not_change_bytes(self):
        # OpenBLAS reads its thread count once, at import: one child each.
        # A 2-carrier call on 64x64 pairs and the 16-carrier desk-bp call.
        script = (
            "import hashlib, numpy as np\n"
            "from mmfsk import BasebandTensor, FrequencySet, mean_pair_phasors, mimo_cross_array\n"
            "rng = np.random.default_rng(8)\n"
            "pts = rng.uniform(-0.05, 0.05, (700, 3)) + [0, 0, 0.3]\n"
            "for n, aperture, freqs in ((64, 0.4, (72e9, 82e9)), (16, 0.2, tuple(np.linspace(72e9, 82e9, 16)))):\n"
            "    d = rng.normal(size=(n, n, len(freqs), 2))\n"
            "    bb = BasebandTensor(d[..., 0] + 1j * d[..., 1])\n"
            "    out = mean_pair_phasors(pts, bb, mimo_cross_array(n, n, aperture), FrequencySet(freqs), workers=1)\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            digests.append(run.stdout.split())
        assert [len(h) for h in digests[0]] == [64, 64] and digests[0] == digests[1]


class TestCarrierRecurrence:
    def test_uniform_step_rule(self):
        bench_carriers = [g * 1e9 for g in np.linspace(72.0, 82.0, 16)]
        assert _uniform_step(bench_carriers) == (82e9 - 72e9) / 15
        for n in (3, 16, 17, 128):
            assert _uniform_step(np.linspace(72e9, 82e9, n)) == (82e9 - 72e9) / (n - 1)
        assert _uniform_step((72e9, 82e9)) is None
        assert _uniform_step(FrequencySet.triple_from_pair_names("0.5", "10.0").frequencies) is None
        off = np.linspace(72e9, 82e9, 16)
        off[5] += 2 * np.spacing(82e9)
        assert _uniform_step(off) is None

    @pytest.mark.parametrize("n_carriers", [3, 16, 17, 128, 256])
    def test_recurrence_matches_exact_phase_reference(self, desk_array, n_carriers):
        rng = np.random.default_rng(21)
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, n_carriers)))
        baseband = random_baseband(rng, desk_array, len(freqs))
        points = np.column_stack([rng.uniform(-0.032, 0.032, (6, 2)), rng.uniform(0.25, 0.33, 6)])
        got = mean_pair_phasors(points, baseband, desk_array, freqs, workers=1)
        want = exact_phase_reference(points, baseband, desk_array, freqs)
        assert np.abs(got - want).max() / np.abs(want).max() < 2.5e-13

    @pytest.mark.parametrize(
        "carriers",
        [(72e9, 82e9), (72e9, 81.45e9, 82e9), (70.3e9, 74.1e9, 79.9e9, 83.2e9)],
        ids=["pair", "3fsk-triple", "random"],
    )
    def test_other_carrier_sets_match_exact_phase_reference(self, carriers):
        # A turn-table phasor per carrier and table, no recurrence.
        rng = np.random.default_rng(4)
        array = mimo_cross_array(6, 5, 0.05)
        freqs = FrequencySet(carriers)
        baseband = random_baseband(rng, array, len(freqs))
        points = rng.uniform(-0.02, 0.02, (256, 3)) + [0, 0, 0.3]
        got = mean_pair_phasors(points, baseband, array, freqs, workers=1)
        want = exact_phase_reference(points, baseband, array, freqs)
        assert np.abs(got - want).max() / np.abs(want).max() < 2.5e-13

    def test_seventeen_carrier_chain_is_independent_of_workers(self):
        # 17 carriers: one turn-table phasor at carrier 0, then 16 steps.
        rng = np.random.default_rng(6)
        array = mimo_cross_array(5, 6, 0.05)
        freqs = FrequencySet(tuple(np.linspace(72e9, 82e9, 17)))
        baseband = random_baseband(rng, array, len(freqs))
        points = rng.uniform(-0.02, 0.02, (700, 3)) + [0, 0, 0.3]
        outs = [mean_pair_phasors(points, baseband, array, freqs, workers=w) for w in (1, 2, 3)]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
        cube = np.ascontiguousarray(np.moveaxis(baseband.data, -1, 0))
        want = reference_phasor_block(points, cube, array, freqs.frequencies)
        assert np.abs(outs[0] - want).max() / np.abs(want).max() < 1e-12
        # Carrier 0 is a seed table alone, with no step applied yet.
        first = exact_phase_reference(points, BasebandTensor(baseband.data[..., :1]), array,
                                      FrequencySet(freqs.frequencies[:1]))
        assert np.abs(outs[0][:, :1] - first).max() / np.abs(first).max() < 2.5e-13
