import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfsk import (
    FREQUENCY_PAIRS,
    SPEED_OF_LIGHT,
    AntennaArray,
    BasebandTensor,
    CandidateGrid,
    FrequencySet,
    Scene,
    correlate_grid,
    differential_phasor,
    max_unambiguous_depth,
    phase_to_depth_correction,
    principal_phase,
    residual_phase,
    simulate_baseband,
)
from mmfsk.errors import ConfigurationError
from test_correlate import distance_tables

# Published correction windows (cm) for the six bundled frequency pairs.
REFERENCE_WINDOWS_CM = {
    "0.5": 13.60,
    "1.0": 7.32,
    "2.0": 3.66,
    "4.0": 1.83,
    "8.0": 0.93,
    "10.0": 0.75,
}


class TestMaxUnambiguousDepth:
    @pytest.mark.parametrize("name,expected_cm", sorted(REFERENCE_WINDOWS_CM.items()))
    def test_reference_pairs(self, name, expected_cm):
        f1, f2 = FREQUENCY_PAIRS[name]
        assert max_unambiguous_depth(f2 - f1) * 100 == pytest.approx(expected_cm, abs=0.05)

    def test_ten_gigahertz(self):
        assert max_unambiguous_depth(10e9) == pytest.approx(SPEED_OF_LIGHT / 4e10, rel=1e-15)
        assert max_unambiguous_depth(10e9) * 100 == pytest.approx(0.75, abs=0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            max_unambiguous_depth(0.0)
        with pytest.raises(ConfigurationError):
            max_unambiguous_depth(-1e9)


def round_trip(tx, rx, p) -> float:
    """TX -> p -> RX path length from the distance tables both kernels use."""
    dtx, drx = distance_tables(p, AntennaArray(tx, rx))
    return float(dtx[0] + drx[0])


class TestRoundTripDistance:
    def test_monostatic_on_axis(self):
        assert round_trip((0, 0, 0), (0, 0, 0), (0, 0, 0.5)) == pytest.approx(1.0)

    def test_bistatic_pythagoras(self):
        d = round_trip((0.1, 0, 0), (-0.1, 0, 0), (0, 0, 0.3))
        assert d == pytest.approx(2 * np.sqrt(0.01 + 0.09), rel=1e-12)

    def test_against_high_precision_oracle(self):
        # Every (point, TX, RX) round trip of a batch: tx table [n, t] plus
        # rx table [n, r], against a 50-digit evaluation.
        def dist(a, b):
            return mpmath.sqrt(sum((mpmath.mpf(a[i]) - mpmath.mpf(b[i])) ** 2 for i in range(3)))

        rng = np.random.default_rng(5)
        for _ in range(10):
            tx, rx, pts = rng.normal(0, 0.5, (3, 3)), rng.normal(0, 0.5, (4, 3)), rng.normal(0, 0.5, (5, 3))
            dtx, drx = distance_tables(pts, AntennaArray(tx, rx))
            for n, p in enumerate(pts):
                for t, a in enumerate(tx):
                    for r, b in enumerate(rx):
                        with mpmath.workdps(50):
                            expect = dist(a, p) + dist(b, p)
                        assert dtx[n, t] + drx[n, r] == pytest.approx(float(expect), rel=1e-14)

    def test_zero_only_when_coincident(self):
        assert round_trip((0, 0, 0), (0, 0, 0), (0, 0, 0)) == 0.0


class TestDifferentialPhasor:
    def test_equal_inputs_give_positive_real(self):
        c = np.exp(1j * 1.234)
        d = differential_phasor(c, c)
        assert d.imag == pytest.approx(0.0, abs=1e-15)
        assert d.real > 0

    def test_common_path_identity(self):
        # For one path delay, the differential of two carriers is the
        # phasor of their difference frequency.
        tau = 2.345e-9
        f1, f2 = 72e9, 82e9
        c1 = np.exp(-2j * np.pi * f1 * tau)
        c2 = np.exp(-2j * np.pi * f2 * tau)
        assert differential_phasor(c1, c2) == pytest.approx(np.exp(-2j * np.pi * (f2 - f1) * tau), abs=1e-12)

    def test_phase_matches_wrapped_subtraction(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a1, a2 = rng.uniform(-np.pi, np.pi, 2)
            got = principal_phase(differential_phasor(np.exp(1j * a1), np.exp(1j * a2)))
            want = (a2 - a1 + np.pi) % (2 * np.pi) - np.pi
            if want == -np.pi:
                want = np.pi
            assert got == pytest.approx(want, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
            prod = differential_phasor(a, b) * differential_phasor(b, a)
            assert prod.imag == pytest.approx(0.0, abs=1e-15)
            assert prod.real > 0


class TestPhaseToDepthCorrection:
    def test_zero_phase(self):
        assert phase_to_depth_correction(0.0, 10e9) == 0.0
        assert type(phase_to_depth_correction(0.0, 10e9)) is np.float64

    def test_boundary_equals_window(self):
        assert phase_to_depth_correction(np.pi, 10e9) == pytest.approx(max_unambiguous_depth(10e9))

    def test_sign_follows_phase(self):
        assert phase_to_depth_correction(0.3, 1e9) > 0
        assert phase_to_depth_correction(-0.3, 1e9) < 0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-np.pi / 2, max_value=np.pi / 2), st.floats(min_value=1e8, max_value=2e10))
    def test_odd_and_linear(self, phase, f_eff):
        one = phase_to_depth_correction(phase, f_eff)
        assert phase_to_depth_correction(-phase, f_eff) == pytest.approx(-one, rel=1e-12, abs=1e-30)
        assert phase_to_depth_correction(2 * phase, f_eff) == pytest.approx(2 * one, rel=1e-12, abs=1e-30)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ConfigurationError):
            phase_to_depth_correction(0.1, 0.0)


class TestPrincipalPhase:
    def test_tie_at_pi_is_positive(self):
        assert principal_phase(complex(-1.0, 0.0)) == pytest.approx(np.pi)
        assert principal_phase(complex(-1.0, -0.0)) == pytest.approx(np.pi)
        assert type(principal_phase(complex(-1.0, -0.0))) is np.float64
        assert type(principal_phase(1j)) is np.float64

    def test_array_form(self):
        vals = np.array([1 + 0j, 1j, complex(-1.0, -0.0)])
        out = principal_phase(vals)
        assert out[2] == pytest.approx(np.pi)


class TestClosedLoopCorrection:
    def test_single_target_three_millimeter_offset(self):
        # End-to-end: simulate one target 3 mm beyond the assumed depth and
        # recover the offset from the differential phasor.
        zero = np.zeros((1, 3))
        array = AntennaArray(zero, zero)
        freqs = FrequencySet(FREQUENCY_PAIRS["0.5"])
        truth, prior = 0.303, 0.300
        scene = Scene(np.array([[0.0, 0.0, truth]]), np.ones(1, complex), np.zeros(1))
        baseband = simulate_baseband(scene, array, freqs)
        grid = CandidateGrid.regular(1, 1, 1.0).with_scalar_prior(prior)
        phasors = correlate_grid(baseband, grid, array, freqs)
        diff = differential_phasor(phasors[0, 0, 0], phasors[0, 0, 1])
        delta_d = phase_to_depth_correction(residual_phase(diff), freqs.delta())
        assert delta_d == pytest.approx(truth - prior, abs=1e-6)


class TestFrequencySet:
    def test_must_increase(self):
        with pytest.raises(ConfigurationError):
            FrequencySet((82e9, 72e9))
        with pytest.raises(ConfigurationError):
            FrequencySet((72e9, 72e9))

    def test_positive_only(self):
        with pytest.raises(ConfigurationError):
            FrequencySet((0.0, 1e9))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_finite_only(self, bad):
        # NaN passes every ordering test and inf the positivity test.
        for carriers in ((72e9, bad), (bad, 72e9), (72e9, bad, 82e9)):
            with pytest.raises(ConfigurationError, match="must be finite"):
                FrequencySet(carriers)

    def test_delta(self):
        fs = FrequencySet((72e9, 82e9))
        assert fs.delta() == pytest.approx(10e9)

    def test_triple_builder(self):
        fs = FrequencySet.triple_from_pair_names("0.5", "10.0")
        assert [f / 1e9 for f in fs.frequencies] == [72.00, 81.45, 82.00]

    def test_unknown_pair(self):
        with pytest.raises(ConfigurationError):
            FrequencySet.from_pair_name("3.3")


class TestSceneAndArrayValidation:
    def test_scene_requires_targets(self):
        with pytest.raises(Exception):
            Scene(np.zeros((0, 3)), np.zeros(0, complex), np.zeros(0))

    def test_scene_rejects_zero_reflectivity(self):
        with pytest.raises(Exception):
            Scene(np.zeros((1, 3)), np.zeros(1, complex), np.zeros(1))

    def test_array_shape_checks(self):
        with pytest.raises(Exception):
            AntennaArray(np.zeros((1, 2)), np.zeros((1, 3)))
        with pytest.raises(Exception):
            AntennaArray(np.array([[np.inf, 0, 0]]), np.zeros((1, 3)))


class TestFrozenInputs:
    def test_baseband_leaves_caller_array_writable(self):
        d = np.zeros((2, 2, 2), complex)
        bb = BasebandTensor(d)
        d[0, 0, 0] = 1
        assert bb.data[0, 0, 0] == 0 and not bb.data.flags.writeable

    def test_with_prior_leaves_caller_arrays_writable(self):
        prior = np.full((3, 4), 0.3)
        grid = CandidateGrid.regular(4, 3, 0.001).with_prior(prior)
        prior[0, 0] = np.nan
        assert grid.prior_depth[0, 0] == 0.3 and grid.valid[0, 0]
        assert not grid.prior_depth.flags.writeable and not grid.valid.flags.writeable
