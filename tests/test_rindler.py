import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import loggamma

from entlab import numerics, rindler
from entlab.quantum_state import bose_entropy


# --- angular waves -----------------------------------------------------------

def test_angular_wave_rejects_origin():
    with pytest.raises(ValueError):
        rindler.angular_wave(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rindler.angular_wave(2.0, -1.0, 1.0)


def test_angular_wave_scales_argument_by_mass():
    got = rindler.angular_wave(3.0, 1.7, 2.0)
    assert abs(got - numerics.bessel_K_imag(3.0, 3.4)) <= 1e-15


def test_zero_frequency_wave_decays_without_sign_change():
    vals = np.asarray(rindler.angular_wave(0.0, np.linspace(0.05, 20.0, 300), 1.0))
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("mass", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_angular_wave_rejects_a_mass_that_is_not_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        rindler.angular_wave(1.0, 1.0, mass)


def test_angular_wave_rejects_a_negative_frequency():
    with pytest.raises(ValueError, match="ell must be nonnegative"):
        rindler.angular_wave(-1.0, 1.0, 1.0)


# --- turning point census -------------------------------------------------------
#
# Sign changes of the wave on 1000 samples below the turning point x* = ell/m
# and on 1000 samples from x* to x* + 22/m above it.

def below_turning_point(ell, mass):
    x_star = ell / mass
    return rindler.sign_changes(
        rindler.angular_wave(ell, np.linspace(x_star / 1000, x_star, 1000), mass))


def above_turning_point(ell, mass):
    x_star = ell / mass
    grid = np.linspace(x_star, x_star + 22.0 / mass, 1001)[1:]
    return rindler.sign_changes(rindler.angular_wave(ell, grid, mass))


def test_census_ell_8():
    assert below_turning_point(8.0, 1.0) >= 1
    assert above_turning_point(8.0, 1.0) == 0


def test_census_zero_frequency_has_no_oscillatory_region():
    assert above_turning_point(0.0, 1.0) == 0


def test_census_counts_grow_with_frequency():
    assert below_turning_point(16.0, 1.0) > below_turning_point(8.0, 1.0)


def test_census_turning_point_scales_with_mass():
    # K_{i ell}(m x): the wave at mass 2 is the mass-1 wave at half the x
    assert below_turning_point(4.0, 2.0) == below_turning_point(4.0, 1.0) >= 1
    assert above_turning_point(4.0, 2.0) == 0


def test_sign_changes_skip_exact_zeros():
    # a wave that passes through an exact sample zero still crosses once
    assert rindler.sign_changes(np.array([1.0, 0.0, -1.0])) == 1
    assert rindler.sign_changes(np.array([1.0, 0.0, 0.0, 2.0])) == 0
    assert rindler.sign_changes(np.array([-1.0, 2.0, 0.0, -3.0, 4.0])) == 3


# --- discrete spectrum ------------------------------------------------------------

def test_spectrum_roots_reevaluate_below_residual():
    spectrum = rindler.discrete_spectrum(1.0, 0.2, 6.0)
    assert len(spectrum) >= 1
    for ell in spectrum.ell_values:
        assert abs(numerics.bessel_K_imag(float(ell), 0.2)) <= 1e-8


def test_spectrum_roots_are_simple_sign_changes():
    spectrum = rindler.discrete_spectrum(1.0, 0.2, 6.0)
    h = 1e-4
    for ell in spectrum.ell_values:
        left = numerics.bessel_K_imag(float(ell) - h, 0.2)
        right = numerics.bessel_K_imag(float(ell) + h, 0.2)
        assert np.sign(left) * np.sign(right) < 0


def test_halving_regulator_adds_roots():
    coarse = rindler.discrete_spectrum(1.0, 0.2, 6.0)
    fine = rindler.discrete_spectrum(1.0, 0.1, 6.0)
    assert len(fine) > len(coarse)


def mpmath_root(seed, x=0.1):
    """40-digit root of e^{pi ell/2} K_{i ell}(x) nearest the seed."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        f = lambda ell: (mpmath.exp(mpmath.pi * ell / 2)
                         * mpmath.besselk(1j * ell, mpmath.mpf(x))).real
        return float(mpmath.findroot(f, mpmath.mpf(seed)))


def test_top_root_matches_mpmath():
    top = rindler.discrete_spectrum(1.0, 0.1, 20.0).ell_values[-1]
    reference = mpmath_root(19.9867)
    assert abs(reference - 19.986700481) <= 1e-9
    assert abs(top - reference) <= 1e-9


def test_spectrum_to_ell_40_matches_mpmath():
    ells = rindler.discrete_spectrum(1.0, 0.1, 40.0).ell_values
    assert ells.size == 72
    for index, seed in [(0, 1.1419), (20, 14.0544), (40, 24.6227), (71, 39.7047)]:
        assert abs(ells[index] - mpmath_root(seed)) <= 1e-9, index
    assert abs(ells[-1] - 39.704656997348) <= 1e-9


def small_x_phase(ell, x):
    """Phase of the small-x wave, K_{i ell}(x) ~ A(ell) sin(phase)
    (DLMF 10.45): ell ln(2/x) + arg Gamma(1 + i ell)."""
    return ell * math.log(2.0 / x) + loggamma(1.0 + 1j * np.asarray(ell)).imag


@pytest.mark.parametrize("ell_max", [20.0, 40.0])
@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_spectrum_count_follows_small_x_phase(mass, ell_max):
    # below m epsilon = 0.4 the phase grows monotonically in ell, so it
    # counts the zeros in (0, ell_max] independently of the scan
    for eps in (0.2, 0.1, 0.05, 0.025, 0.1 / 2**8, 0.1 / 2**9, 0.1 / 2**10):
        x = mass * eps
        if x > 0.4:
            continue
        ells = rindler.discrete_spectrum(mass, eps, ell_max).ell_values
        count = math.floor(small_x_phase(ell_max, x) / math.pi)
        assert ells.size == count, (mass, eps)
        law = [brentq(lambda ell: small_x_phase(ell, x) - n * math.pi, 0.0, ell_max)
               for n in range(1, count + 1)]
        assert np.abs(ells - law).max() <= 1e-2, (mass, eps)


def test_spectrum_residual_binds_in_amplitude_units():
    ells = rindler.discrete_spectrum(1.0, 0.1, 20.0).ell_values
    scaled = np.abs(rindler.scaled_wave(ells, 0.1))
    assert scaled.max() <= 1e-8
    # the raw K at the top root is below any absolute 1e-8 already
    off = rindler.scaled_wave(ells[-1] + 1e-6, 0.1)
    assert abs(off) > 1e-7 and abs(numerics.bessel_K_imag(ells[-1] + 1e-6, 0.1)) < 1e-8


@pytest.mark.parametrize("epsilon, ell_max", [(2.5, 20.0), (3.0, 40.0)])
def test_spectrum_above_x_2_reevaluates_below_residual(epsilon, ell_max):
    # m epsilon > 2: low ell runs the quadrature, the rest the series
    mpmath = pytest.importorskip("mpmath")
    ells = rindler.discrete_spectrum(1.0, epsilon, ell_max).ell_values
    assert ells.size >= 10
    with mpmath.workdps(40):
        ref = [float(mpmath.besselk(1j * mpmath.mpf(ell), mpmath.mpf(epsilon)).real)
               for ell in ells]
    assert np.max(np.abs(ref) / numerics.bessel_amplitude(ells)) <= 1e-8


def test_spectrum_to_ell_200_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ells = rindler.discrete_spectrum(1.0, 0.1, 200.0).ell_values
    assert np.all(np.diff(ells) > 0.0) and 199.0 < ells[-1] <= 200.0


def test_root_residual_failure_is_numerical_error(monkeypatch):
    # a wave that jumps sign at ell = 1.5 has a sign change but no root there
    monkeypatch.setattr(numerics, "bessel_K_imag",
                        lambda ell, x: np.where(np.asarray(ell) < 1.5, 1.0, -1.0))
    with pytest.raises(numerics.NumericalError,
                       match="sign change at 1.5 is not a root"):
        rindler.discrete_spectrum(1.0, 0.1, 20.0)


def test_empty_spectrum_is_flagged():
    # K_{i ell}(x) has no zero at ell <= x, so m epsilon >= ell_max gives none;
    # from x ~ 745 on K underflows to exactly 0, which a scan would read as a
    # root at each of its 20,001 points
    for epsilon, ell_max in [(0.5, 0.5), (20.0, 20.0), (800.0, 20.0), (745.0, 400.0)]:
        with pytest.warns(numerics.RootCountWarning):
            spectrum = rindler.discrete_spectrum(1.0, epsilon, ell_max)
        assert len(spectrum) == 0
    # below ell_max the scan runs, and finds its roots above m epsilon
    assert rindler.discrete_spectrum(1.0, 5.0, 20.0).ell_values.min() > 5.0


def test_spectrum_validation():
    with pytest.raises(ValueError):
        rindler.discrete_spectrum(1.0, -0.1, 5.0)
    with pytest.raises(ValueError):
        rindler.discrete_spectrum(1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="underflows"):
        rindler.discrete_spectrum(1.0, 0.1, 500.0)


@pytest.mark.parametrize("mass, epsilon, named", [
    (np.nan, 0.1, "mass must be positive"),
    (1.0, np.nan, "epsilon must be positive"),
], ids=["mass", "epsilon"])
def test_spectrum_rejects_nan(mass, epsilon, named):
    # not "x contains non-finite entries" from the Bessel function
    with pytest.raises(ValueError, match=named):
        rindler.discrete_spectrum(mass, epsilon, 20.0)


def test_spectrum_record_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        rindler.AngularSpectrum(epsilon=np.nan, ell_values=[1.0])


# --- thermal weights ------------------------------------------------------------

def sample_spectrum(*ells):
    return rindler.AngularSpectrum(epsilon=0.1, ell_values=np.array(ells))


def test_weight_ratios_follow_boltzmann_law():
    spectrum = sample_spectrum(0.3, 0.9, 2.0)
    table = rindler.thermal_weights(spectrum, n_max=8)
    for row, ell in zip(table, spectrum.ell_values):
        target = math.exp(-rindler.BETA * ell)
        ratios = row[1:] / row[:-1]
        assert np.abs(ratios / target - 1.0).max() <= 1e-12


def test_high_frequency_mode_freezes():
    table = rindler.thermal_weights(sample_spectrum(50.0), n_max=4)
    assert abs(table[0, 0] - 1.0) <= 1e-15


def test_weights_sum_to_one_within_tail_bound():
    spectrum = sample_spectrum(0.2, 1.0)
    n_max = 40
    table = rindler.thermal_weights(spectrum, n_max=n_max)
    for row, ell in zip(table, spectrum.ell_values):
        tail = math.exp(-rindler.BETA * ell * (n_max + 1))
        assert abs(row.sum() - 1.0) <= tail + 1e-15


def test_mode_entropy_matches_direct_summation():
    for ell in (0.1, 0.5, 1.3):
        table = rindler.thermal_weights(sample_spectrum(ell), n_max=400)
        p = table[0]
        p = p[p > 0.0]
        direct = float(-(p * np.log(p)).sum())
        assert abs(direct - bose_entropy(rindler.BETA * ell)) <= 1e-10


def test_mode_entropy_has_no_overflow_at_high_frequency():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bose_entropy(rindler.BETA * 200.0) == 0.0
        # integral of s(ell) over ell: pi^2/3 / (2 pi) = pi/6
        total, _ = quad(lambda ell: bose_entropy(rindler.BETA * ell), 0.0, np.inf)
    assert abs(total - math.pi / 6.0) <= 1e-10


# --- geometric entropy --------------------------------------------------------------

def test_geometric_entropy_of_empty_spectrum():
    empty = rindler.AngularSpectrum(epsilon=0.1, ell_values=np.array([]))
    assert rindler.geometric_entropy(empty) == 0.0


def test_geometric_entropy_single_mode():
    spectrum = sample_spectrum(0.4)
    assert abs(rindler.geometric_entropy(spectrum)
               - bose_entropy(rindler.BETA * 0.4)) <= 1e-12


def test_geometric_entropy_grows_as_regulator_shrinks():
    entropies = [rindler.geometric_entropy(rindler.discrete_spectrum(1.0, eps, 6.0))
                 for eps in (0.1, 0.05, 0.025)]
    assert entropies[0] < entropies[1] < entropies[2]


# --- Kruskal chart --------------------------------------------------------------------

def test_kruskal_point_at_r_4m():
    u, v = rindler.to_kruskal(4.0, 0.0, 1.0)
    assert abs(u * v - 16.0 * math.e) <= 1e-12 * 16 * math.e
    assert abs(u - 4.0 * math.sqrt(math.e)) <= 1e-12
    assert abs(v - 4.0 * math.sqrt(math.e)) <= 1e-12


def test_time_shift_scales_u_over_v():
    m, k = 1.5, 7.0
    u, v = rindler.to_kruskal(5.0, [1.0, 1.0 + 2 * m * math.log(k)], m)
    assert abs((u[1] / v[1]) / (u[0] / v[0]) - k) <= 1e-12 * k


def test_uv_vanishes_toward_horizon():
    r = 2.0 * (1.0 + 10.0 ** -np.arange(1.0, 9.0))
    u, v = rindler.to_kruskal(r, 0.3, 1.0)
    products = u * v
    assert np.all(products[1:] < products[:-1])
    assert products[-1] < 1e-6 * products[0]


def test_horizon_and_interior_rejected():
    with pytest.raises(ValueError, match="exterior"):
        rindler.to_kruskal(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rindler.to_kruskal(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rindler.from_kruskal(0.0, 1.0, 1.0)


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
def test_chart_rejects_a_mass_that_is_not_positive(mass):
    with pytest.raises(ValueError, match="mass"):
        rindler.to_kruskal(4.0, 0.0, mass)
    with pytest.raises(ValueError, match="mass"):
        rindler.from_kruskal(1.0, 1.0, mass)


@pytest.mark.parametrize("bad_r", [2.0, 1.0, math.nan, math.inf],
                         ids=["horizon", "interior", "nan", "inf"])
def test_one_bad_radius_rejects_the_whole_array(bad_r):
    r = np.linspace(2.5, 9.0, 7)
    r[4] = bad_r
    with pytest.raises(ValueError, match="exterior"):
        rindler.to_kruskal(r, np.zeros(7), 1.0)


@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
def test_one_bad_kruskal_coordinate_rejects_the_whole_array(side, bad):
    coords = {"u": np.linspace(0.5, 3.0, 6), "v": np.linspace(1.0, 2.0, 6)}
    coords[side][2] = bad
    with pytest.raises(ValueError, match="exterior"):
        rindler.from_kruskal(coords["u"], coords["v"], 1.0)


@pytest.mark.parametrize("bad_t", [math.nan, math.inf], ids=["nan", "inf"])
def test_one_non_finite_time_rejects_the_whole_array(bad_t):
    t = np.zeros(7)
    t[4] = bad_t
    with pytest.raises(ValueError, match="finite"):
        rindler.to_kruskal(np.linspace(2.5, 9.0, 7), t, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [2000.0, 2800.0])
def test_round_trip_where_u_v_overflows(r):
    # u v = 16 M^2 (r/2M - 1) e^{r/2M - 1} overflows at M = 1 from r = 1402.9
    # on, while u = v = 4M sqrt(r/2M - 1) e^{(r/2M - 1)/2} stays finite
    u, v = rindler.to_kruskal(r, 0.0, 1.0)
    assert u == v and abs(u / (4.0 * math.sqrt(r / 2 - 1) * math.exp((r / 2 - 1) / 2)) - 1) <= 4e-16
    assert rindler.from_kruskal(u, v, 1.0) == (r, 0.0)


@pytest.mark.filterwarnings("error")
def test_point_whose_u_overflows_is_rejected_and_its_neighbours_round_trip():
    # at M = 1, r = 2800, t = 30 the true u is 9.6e305 e^{7.5}, about 1.7e309
    with pytest.raises(ValueError, match="overflows"):
        rindler.to_kruskal(2800.0, 30.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        rindler.to_kruskal([4.0, 2800.0, 9.0], [0.0, 30.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="overflows"):
        rindler.to_kruskal(3000.0, 0.0, 1.0)  # here the root of u v overflows
    for t in (-5.0, 0.0):
        u, v = rindler.to_kruskal(2800.0, t, 1.0)
        assert rindler.from_kruskal(u, v, 1.0) == (2800.0, t)


@pytest.mark.filterwarnings("error")
def test_w0_solve_matches_mpmath():
    # 1 + W_0, the factor of r, over every ln z the chart can meet, and W_0
    # itself, which the last step on w e^w = z takes to the last ulp
    mpmath = pytest.importorskip("mpmath")
    log_z = np.concatenate([np.linspace(-3000.0, 1500.0, 901), np.linspace(-5.0, 5.0, 201)])
    z = np.geomspace(1e-30, 1e30, 601)
    with mpmath.workdps(40):
        one_plus = np.array([float(1 + mpmath.lambertw(mpmath.exp(x))) for x in log_z])
        reference = np.array([float(mpmath.lambertw(mpmath.mpf(x))) for x in z])
    with np.errstate(over="ignore", invalid="ignore"):  # z = inf: the last step is skipped
        w = rindler._lambert_w0(log_z, np.exp(log_z))
    assert np.abs((1.0 + w) / one_plus - 1.0).max() <= 4.4e-16
    assert np.abs(rindler._lambert_w0(np.log(z), z) / reference - 1.0).max() <= 5e-16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1500.0, -1500.0])
def test_round_trip_where_u_over_v_leaves_the_float_range(t):
    # at M = 1, u/v = e^{t/2M} overflows from |t| = 1419.6 on
    back_r, back_t = rindler.from_kruskal(*rindler.to_kruskal(4.0, t, 1.0), 1.0)
    assert abs(back_r / 4.0 - 1.0) <= 4e-16 and abs(back_t / t - 1.0) <= 4e-16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass", [1e-300, 1e-150, 1e-3, 1.0, 1.5, 1e150])
def test_round_trip_at_any_mass(mass):
    # at M = 1e-300, 16 M^2 underflows to 0 and u v / 16 M^2 is NaN, while
    # ln z = ln u + ln v - 2 ln 4M is a float at every mass
    rng = np.random.default_rng(11)
    r = 2 * mass + 8 * mass * (1.0 - rng.random(500))  # (2M, 10M]
    t = -10 * mass + 20 * mass * rng.random(500)
    back_r, back_t = rindler.from_kruskal(*rindler.to_kruskal(r, t, mass), mass)
    assert np.abs(back_r / r - 1.0).max() <= 1e-10
    assert np.abs(back_t - t).max() <= 1e-10 * max(1.0, np.abs(t).max())


@pytest.mark.parametrize("mass", [1e-300, 1e-150, 1e-3, 1.0, 1.5, 1e150])
def test_radius_matches_mpmath_at_any_mass(mass):
    # r up to 1400M, where u v / 16 M^2 overflows; measured 1.5e-16
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    rho = np.concatenate([1.0 + 10.0 ** -rng.uniform(1.0, 15.0, 20), 1.0 + 699.0 * rng.random(20)])
    u, v = rindler.to_kruskal(2 * mass * rho, mass * rng.uniform(-10.0, 10.0, rho.size), mass)
    with mpmath.workdps(40):
        m = mpmath.mpf(mass)
        reference = np.array([float(2 * m * (1 + mpmath.lambertw(
            mpmath.mpf(a) * mpmath.mpf(b) / (16 * m * m)).real)) for a, b in zip(u, v)])
    assert np.abs(rindler.from_kruskal(u, v, mass)[0] / reference - 1.0).max() <= 4.4e-16


@pytest.mark.parametrize("t", [2.4e-298, -1.5e-298, -1.9e-298], ids=["v-zero", "u-1e-316", "u-1e-320"])
def test_point_whose_u_or_v_underflows_is_rejected(t):
    # at M = 1e-300, r = 3M, u and v are 3.6e-300 e^{+-t/4M}: at t = 240M, v is
    # about 3e-326 and rounds to 0; at -150M and -190M, u is subnormal, 1.9e-316 and
    # 8.5e-321, and the round trip would miss r by 1e-9 and 3e-5
    with pytest.raises(ValueError, match="underflows"):
        rindler.to_kruskal(3e-300, t, 1e-300)


@pytest.mark.filterwarnings("error")
def test_from_kruskal_takes_w0_from_the_log_where_u_v_overflows():
    # r from 40-digit mpmath.  At M = 1, u v / 16 M^2 = 6.25e398 overflows
    # (W_0 = 911.44); at M = 1e100 only u v does, and z is 6.25e198
    r, t = rindler.from_kruskal(1e200, 1e200, 1.0)
    assert abs(r / 1824.8928313399306 - 1.0) <= 4e-16 and t == 0.0
    r, t = rindler.from_kruskal(1e200, 1e200, 1e100)
    assert abs(r / 9.052631263097927e102 - 1.0) <= 4e-16 and t == 0.0
    r, t = rindler.from_kruskal(np.array([1e200, 1.0]), np.array([1e200, 2.0]), 1.0)
    assert abs(r[0] / 1824.8928313399306 - 1.0) <= 4e-16
    assert (r[1], t[1]) == rindler.from_kruskal(1.0, 2.0, 1.0)


def test_array_chart_equals_the_scalar_calls():
    rng = np.random.default_rng(3)
    mass = 1.5
    r = 2 * mass + 8 * mass * (1.0 - rng.random(200))
    t = -10 * mass + 20 * mass * rng.random(200)
    u, v = rindler.to_kruskal(r, t, mass)
    back_r, back_t = rindler.from_kruskal(u, v, mass)
    for i in range(r.size):
        assert rindler.to_kruskal(r[i], t[i], mass) == (u[i], v[i])
        assert rindler.from_kruskal(u[i], v[i], mass) == (back_r[i], back_t[i])


@given(st.floats(1e-6, 8.0), st.floats(-10.0, 10.0), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=120, deadline=None)
def test_round_trip(r_offset_factor, t_factor, mass):
    r = 2.0 * mass * (1.0 + 1e-9) + r_offset_factor * mass
    t = t_factor * mass
    back_r, back_t = rindler.from_kruskal(*rindler.to_kruskal(r, t, mass), mass)
    assert abs(back_r - r) <= 1e-10 * r
    assert abs(back_t - t) <= 1e-10 * max(1.0, abs(t))
