import json
import math

import numpy as np
import pytest

from rddkit import cli
from rddkit.benchmark import sample_hull_params
from rddkit.exceptions import InfeasibleHullError
from rddkit.hull import (
    DRAFT_FRACTIONS,
    FROUDE_NUMBERS,
    LOA_RANGE,
    HullDims,
    _deck,
    _slope_transform,
    aggregate_resistances,
    aggregate_total_resistance,
    constraint_violation,
    friction_coefficient,
    friction_resistance,
    half_breadth,
    michell_wave_resistance,
    scale_params,
    wave_resistance_coefficient,
    wetted_surface_area,
)


def canonical_dims(loa=80.0):
    return scale_params([0.25, 0.25, 0.12, 0.08, 0.5, 0.75], loa)


# one hull of each taper layout
SHAPES = {
    "canonical": canonical_dims(),
    "no_bow_taper": HullDims(LOA=60.0, L_b=0.0, L_s=15.0, B_d=7.0, D_d=5.0, B_s=1.5, WL=4.0),
    "no_stern_taper": HullDims(LOA=60.0, L_b=15.0, L_s=0.0, B_d=7.0, D_d=5.0, B_s=3.5, WL=4.0),
    "prism": HullDims(LOA=50.0, L_b=0.0, L_s=0.0, B_d=6.0, D_d=4.0, B_s=3.0, WL=4.0),
}


# ---------------------------------------------------------------- geometry

def test_scale_params_substitution():
    dims = canonical_dims()
    assert dims.LOA == 80.0
    assert dims.L_b == 20.0
    assert dims.L_s == 20.0
    assert dims.B_d == pytest.approx(9.6)
    assert dims.D_d == pytest.approx(6.4)
    assert dims.B_s == pytest.approx(2.4)   # 0.5 * B_d / 2
    assert dims.WL == pytest.approx(4.8)    # 0.75 * D_d


def test_scale_params_boundaries():
    dims = scale_params([0.3, 0.3, 0.1, 0.1, 1.0, 1.0], 100.0)
    assert dims.L_b == pytest.approx(30.0)
    assert dims.B_s == pytest.approx(dims.B_d / 2)
    assert dims.WL == pytest.approx(dims.D_d)


def test_scale_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scale_params([0.3, 0.3, 0.1], 80.0)
    with pytest.raises(InfeasibleHullError):
        scale_params([0.0, 0.3, 0.1, 0.1, 0.5, 0.5], 80.0)
    with pytest.raises(InfeasibleHullError):
        scale_params([1.2, 0.3, 0.1, 0.1, 0.5, 0.5], 80.0)
    # NaN fails both p <= 0 and p > 1; it must still be rejected
    for i in range(6):
        p = np.full(6, 0.3)
        p[i] = np.nan
        with pytest.raises(InfeasibleHullError):
            scale_params(p, 80.0)
    # taper lengths longer than the hull
    with pytest.raises(InfeasibleHullError):
        scale_params([0.7, 0.7, 0.1, 0.1, 0.5, 0.5], 80.0)
    # the rule is constraint_violation's: a fraction below its 1e-3 floor,
    # and a taper sum above 1 by only 1e-13
    for p in ([0.0005, 0.25, 0.12, 0.08, 0.5, 0.75], [0.5, 0.5 + 1e-13, 0.1, 0.1, 0.5, 0.5]):
        assert constraint_violation(np.array([p]))[0] > 0.0
        with pytest.raises(InfeasibleHullError):
            scale_params(p, 80.0)


def test_scale_params_rejects_a_bad_loa():
    p = [0.25, 0.25, 0.12, 0.08, 0.5, 0.75]
    for loa in (np.nan, np.inf, -np.inf, 0.0, -80.0, 0.001, 1e100, 1e300):
        with pytest.raises(InfeasibleHullError, match="LOA"):
            scale_params(p, loa)
    # both ends of the range are lengths the resistance model evaluates
    for loa in LOA_RANGE:
        total = aggregate_total_resistance(scale_params(p, loa))
        assert np.all(np.isfinite(total.R_T)) and np.isfinite(total.aggregate)


def test_constraint_violation_boundaries():
    P = np.array([
        [1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3],   # every fraction on the floor
        [0.3, 0.3, 1.0, 1.0, 1.0, 1.0],         # on the ceiling
        [0.25, 0.75, 0.1, 0.1, 0.5, 0.5],       # p0 + p1 == 1
        [np.nan, 0.25, 0.12, 0.08, 0.5, 0.75],
        [1.5, 0.3, 0.1, 5e-4, 0.5, 0.5],        # overshoot above and below
        [0.75, 0.5, 0.1, 0.1, 0.5, 0.5],        # taper excess only
        [1.5, 0.75, 0.1, 0.1, 0.5, 0.5],        # overshoot takes precedence
    ])
    v = constraint_violation(P)
    assert v.shape == (len(P),)
    assert np.array_equal(v[:3], [0.0, 0.0, 0.0])
    assert np.isnan(v[3])
    assert v[4] == pytest.approx(0.5 + 5e-4, rel=1e-12)
    assert v[5] == 0.25
    assert v[6] == 0.5
    assert constraint_violation(np.empty((0, 6))).shape == (0,)
    for bad in (P[0], P[:, :5]):
        with pytest.raises(ValueError):
            constraint_violation(bad)


def test_aggregate_resistances_equals_per_row_aggregates():
    P = sample_hull_params(5, 3)
    agg = aggregate_resistances(P, 60.0)
    assert agg.shape == (5,) and agg.dtype == np.float64
    assert np.array_equal(agg, [aggregate_total_resistance(scale_params(p, 60.0)).aggregate
                                for p in P])
    empty = aggregate_resistances(np.empty((0, 6)), 60.0)
    assert empty.shape == (0,) and empty.dtype == np.float64
    # the LOA rule holds for the batch, so an empty one is refused too
    with pytest.raises(InfeasibleHullError, match="LOA must lie in"):
        aggregate_resistances(np.empty((0, 6)), 0.001)
    with pytest.raises(InfeasibleHullError):
        aggregate_resistances(np.vstack([P, [[0.7, 0.7, 0.1, 0.1, 0.5, 0.5]]]), 60.0)


def test_halfbreadth_landmarks():
    dims = canonical_dims()
    # plateau at deck level carries the full half-beam
    assert half_breadth(40.0, 0.0, dims) == pytest.approx(dims.B_d / 2)
    assert half_breadth(0.0, 0.0, dims) == 0.0
    assert half_breadth(dims.LOA, 0.0, dims) == pytest.approx(dims.B_s / 2)
    # parabolic depth attenuation closes the section at the keel
    assert half_breadth(40.0, -dims.D_d, dims) == pytest.approx(0.0)
    assert half_breadth(40.0, -dims.D_d / 2, dims) == pytest.approx(0.75 * dims.B_d / 2)


def test_halfbreadth_continuous_at_taper_joints():
    dims = canonical_dims()
    for joint in (dims.L_b, dims.LOA - dims.L_s):
        lo = half_breadth(joint - 1e-9, 0.0, dims)
        hi = half_breadth(joint + 1e-9, 0.0, dims)
        assert abs(lo - hi) < 1e-8


@pytest.mark.parametrize("dims", SHAPES.values(), ids=list(SHAPES))
def test_deck_slope_matches_the_half_beam_difference(dims):
    # each piece of the deck curve is at most quadratic, so a central
    # difference inside it is exact up to rounding
    x_s = dims.LOA - dims.L_s
    pieces = [(0.0, dims.L_b), (dims.L_b, x_s), (x_s, dims.LOA)]
    for lo, hi in pieces:
        if hi <= lo:
            continue
        x = lo + (hi - lo) * np.linspace(0.1, 0.9, 9)
        h = 1e-3 * (hi - lo)
        diff = (half_breadth(x + h, 0.0, dims) - half_breadth(x - h, 0.0, dims)) / (2 * h)
        slope = _deck(x, dims)[1]
        assert np.allclose(slope, diff, rtol=1e-8, atol=1e-10 * dims.B_d / dims.LOA)


def test_halfbreadth_domain_errors():
    dims = canonical_dims()
    with pytest.raises(ValueError):
        half_breadth(-1.0, 0.0, dims)
    with pytest.raises(ValueError):
        half_breadth(dims.LOA + 1.0, 0.0, dims)
    with pytest.raises(ValueError):
        half_breadth(10.0, 0.5, dims)
    with pytest.raises(ValueError):
        half_breadth(10.0, -dims.D_d - 0.1, dims)


def test_halfbreadth_nonnegative_grid():
    dims = canonical_dims()
    xs = np.linspace(0.0, dims.LOA, 101)
    zs = np.linspace(-dims.D_d, 0.0, 41)
    vals = half_breadth(xs[:, None], zs[None, :] * np.ones((101, 41)), dims)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= dims.B_d / 2 + 1e-12)


# ----------------------------------------------------------- wetted surface

def test_wetted_area_prism_closed_form():
    # no tapers: the integrand is x-independent and the z-integral is analytic
    dims = SHAPES["prism"]
    t = 0.75 * dims.WL
    c = dims.B_d / dims.D_d ** 2
    z_int = t / 2 * math.sqrt(1 + (c * t) ** 2) + math.asinh(c * t) / (2 * c)
    expected = 2.0 * dims.LOA * z_int / dims.LOA ** 2
    got = wetted_surface_area(dims, 0.75)
    assert got == pytest.approx(expected, rel=1e-7)


def test_wetted_area_flat_plate_limit():
    dims = HullDims(LOA=40.0, L_b=10.0, L_s=10.0, B_d=1e-9, D_d=4.0, B_s=0.0, WL=3.0)
    t = 0.5 * dims.WL
    expected = 2.0 * dims.LOA * t / dims.LOA ** 2
    assert wetted_surface_area(dims, 0.5) == pytest.approx(expected, rel=1e-9)


def test_wetted_area_node_doubling():
    dims = canonical_dims()
    for df in DRAFT_FRACTIONS:
        base = wetted_surface_area(dims, df, nx=128, nz=32)
        fine = wetted_surface_area(dims, df, nx=256, nz=64)
        assert abs(fine - base) < 1e-3 * abs(base)


def test_wetted_area_rejects_bad_draft():
    dims = canonical_dims()
    with pytest.raises(ValueError):
        wetted_surface_area(dims, 0.0)
    with pytest.raises(ValueError):
        wetted_surface_area(dims, 1.5)


def test_wetted_area_grows_with_draft():
    dims = canonical_dims()
    areas = [wetted_surface_area(dims, df) for df in (0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(areas, areas[1:]))


# ------------------------------------------------------------ wave integral

def speed_at(fr, dims):
    return fr * math.sqrt(9.81 * dims.LOA)


def test_michell_zero_beam_is_zero():
    dims = HullDims(LOA=80.0, L_b=20.0, L_s=20.0, B_d=0.0, D_d=6.4, B_s=0.0, WL=4.8)
    U = speed_at(0.3, dims)
    assert michell_wave_resistance(dims, U, 0.5) == (0.0, 0.0)


def test_michell_beam_squared_scaling():
    base = scale_params([0.25, 0.25, 0.08, 0.08, 0.5, 0.75], 80.0)
    wide = scale_params([0.25, 0.25, 0.16, 0.08, 0.5, 0.75], 80.0)
    U = speed_at(0.3, base)
    r1 = michell_wave_resistance(base, U, 0.5)[0]
    r2 = michell_wave_resistance(wide, U, 0.5)[0]
    assert r2 == pytest.approx(4.0 * r1, rel=1e-9)


# hulls for the slope-transform oracle: zero-length, 1e-3 LOA and full tapers
TRANSFORM_HULLS = dict(SHAPES,
                       short_tapers=scale_params([1e-3, 1e-3, 0.12, 0.08, 0.5, 0.75], 80.0),
                       full_tapers=scale_params([0.6, 0.4, 0.12, 0.08, 0.3, 0.75], 80.0))


@pytest.mark.parametrize("dims", TRANSFORM_HULLS.values(), ids=list(TRANSFORM_HULLS))
def test_slope_transform_matches_gauss_legendre_quadrature(dims):
    # the closed form against composite 16-point Gauss-Legendre quadrature,
    # 512 panels per taper, of _deck's slope times e^{i omega x}. omega L of
    # the longer taper runs from 1e-3 to 1e3, so the shorter ones reach the
    # series branch of omega L below 1e-2. The error of both is rounding in
    # the phase omega x (up to 1e6 rad here), so it is measured against each
    # taper's int |gamma| dx / max(1, omega L), the size of its contribution
    rtol = 1e-9
    nodes, weights = np.polynomial.legendre.leggauss(16)
    omega = np.logspace(-3, 3, 61) / max(dims.L_b, dims.L_s, 1.0)
    quad = np.zeros(omega.shape, dtype=complex)
    scale = np.zeros(omega.shape)
    for lo, hi in ((0.0, dims.L_b), (dims.LOA - dims.L_s, dims.LOA)):
        if hi <= lo:
            continue
        edges = np.linspace(lo, hi, 513)
        half = np.diff(edges)[:, None] / 2.0
        x = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
        w = (half * weights).ravel()
        slope = _deck(x, dims)[1]
        quad += np.exp(1j * np.outer(omega, x)) @ (slope * w)
        scale += np.abs(slope) @ w / np.maximum(1.0, omega * (hi - lo))
    Xc, Xs = _slope_transform(dims, omega)
    assert np.all(np.abs(Xc + 1j * Xs - quad) <= rtol * scale)


def test_michell_node_doubling_at_moderate_froude():
    dims = canonical_dims()
    U = speed_at(0.3, dims)
    for df in DRAFT_FRACTIONS:
        base = michell_wave_resistance(dims, U, df, n_lambda=256)[0]
        fine = michell_wave_resistance(dims, U, df, n_lambda=512)[0]
        assert abs(fine - base) < 1e-3 * abs(base)


def test_halving_change_flags_low_froude_cell(recwarn):
    # slow hull: the transform oscillates like 1/Fr^2 and coarse grids miss it
    dims = canonical_dims()
    res = aggregate_total_resistance(dims, n_lambda=64)
    change = res.R_w_halving_change
    assert change.shape == (8, 4)
    assert change[0, 3] > 0.01                  # Fr = 0.1, draft 0.67
    # at the default 256 nodes the cells from Fr = 0.25 up settle below 1 %
    default = aggregate_total_resistance(dims).R_w_halving_change
    assert np.all(default[3:] < 0.01)
    assert default[0, 3] < change[0, 3]
    # the grid value is the scalar call's, which halves the same nodes
    U = speed_at(0.1, dims)
    rw, cell = michell_wave_resistance(dims, U, 0.67, n_lambda=64)
    assert cell == pytest.approx(change[0, 3], rel=1e-12)
    fine = michell_wave_resistance(dims, U, 0.67, n_lambda=64)[0]
    coarse = michell_wave_resistance(dims, U, 0.67, n_lambda=32)[0]
    assert cell == pytest.approx(abs(fine - coarse) / fine, rel=1e-9)
    assert rw == fine
    assert json.loads(cli._json(res))["R_w_halving_change"] == change.tolist()
    # convergence is reported as data, not as a warning
    assert len(recwarn) == 0


def test_default_quadrature_against_a_4096_node_oracle():
    # the halving change overstates the error of the default 256 nodes:
    # 14-17 % at Fr = 0.1 for the canonical hull, against a true error of
    # about 1.5 % there, and the aggregates hardly move
    P = sample_hull_params(40, 0)
    oracle = np.array([aggregate_total_resistance(scale_params(p, 80.0), n_lambda=4096).aggregate
                       for p in P])
    assert np.all(np.abs(aggregate_resistances(P, 80.0) - oracle) < 5e-4 * oracle)
    dims = canonical_dims()
    res = aggregate_total_resistance(dims)
    fine = aggregate_total_resistance(dims, n_lambda=4096).R_w[0]
    assert np.all(np.abs(res.R_w[0] - fine) < 0.03 * fine)
    assert np.all(res.R_w_halving_change[0] > 0.1)


def test_michell_input_validation():
    dims = canonical_dims()
    with pytest.raises(ValueError):
        michell_wave_resistance(dims, 0.0, 0.5)
    with pytest.raises(ValueError):
        michell_wave_resistance(dims, 5.0, 0.0)
    with pytest.raises(ValueError):
        michell_wave_resistance(dims, 5.0, 0.5, n_lambda=130)


def test_michell_nonnegative_random_hulls():
    rng = np.random.default_rng(12)
    lo = np.array([0.05, 0.05, 0.02, 0.02, 0.1, 0.2])
    hi = np.array([0.45, 0.45, 0.20, 0.12, 1.0, 1.0])
    for _ in range(25):
        p = lo + (hi - lo) * rng.random(6)
        dims = scale_params(p, 60.0)
        fr = 0.1 + 0.35 * rng.random()
        rw = michell_wave_resistance(dims, speed_at(fr, dims), 0.5)[0]
        assert rw >= 0.0


# ------------------------------------------------------- simple coefficients

def test_wave_resistance_coefficient_values():
    dims = canonical_dims()
    assert wave_resistance_coefficient(0.0, 5.0, dims) == 0.0
    assert wave_resistance_coefficient(1000.0, 5.0, dims) == pytest.approx(1.25e-5)
    one = wave_resistance_coefficient(700.0, 5.0, dims)
    assert wave_resistance_coefficient(1400.0, 5.0, dims) == pytest.approx(2 * one)


def test_friction_coefficient_values():
    assert friction_coefficient(1e6) == pytest.approx(0.0046875, abs=1e-9)
    assert friction_coefficient(1e8) == pytest.approx(0.075 / 36.0, abs=1e-9)
    assert friction_coefficient(1e4) == pytest.approx(0.01875, abs=1e-9)
    with pytest.raises(ValueError):
        friction_coefficient(100.0)
    with pytest.raises(ValueError):
        friction_coefficient(10.0)


def test_friction_resistance_values():
    dims = canonical_dims()
    assert friction_resistance(0.002, 0.0, 0.05, dims) == 0.0
    assert friction_resistance(0.002, 5.0, 0.05, dims) == pytest.approx(8000.0)
    base = friction_resistance(0.002, 5.0, 0.05, dims)
    assert friction_resistance(0.002, 5.0, 0.10, dims) == pytest.approx(2 * base)


# ------------------------------------------------------------- aggregation

def test_aggregate_grid_layout_and_sums():
    dims = canonical_dims()
    res = aggregate_total_resistance(dims)
    assert res.R_w.shape == (8, 4)
    assert np.allclose(res.froude_numbers, np.linspace(0.1, 0.45, 8))
    assert np.allclose(res.draft_fractions, [0.25, 0.33, 0.5, 0.67])
    assert np.array_equal(res.R_T, res.R_w + res.R_f)
    assert res.aggregate == pytest.approx(res.R_T.sum(), rel=1e-12)
    assert np.all(res.R_w >= 0)
    assert np.all(res.R_f >= 0)
    # coefficients tie back to their defining ratios
    for i, fr in enumerate(res.froude_numbers):
        U = fr * math.sqrt(9.81 * dims.LOA)
        Re = U * dims.LOA / 1.19e-6
        assert np.allclose(res.C_w[i], res.R_w[i] / (0.5 * 1000.0 * U ** 2 * dims.LOA ** 2))
        assert np.allclose(res.C_f[i], friction_coefficient(Re))
    d = json.loads(cli._json(res))
    assert d["aggregate"] == res.aggregate
    assert len(d["R_T"]) == 8


def test_aggregate_increases_with_beam():
    aggs = []
    for p3 in (0.08, 0.12, 0.16, 0.20):
        dims = scale_params([0.25, 0.25, p3, 0.08, 0.5, 0.75], 80.0)
        aggs.append(aggregate_total_resistance(dims).aggregate)
    assert all(b > a for a, b in zip(aggs, aggs[1:]))


def test_aggregate_near_zero_beam_is_friction_dominated():
    # a beam fraction of 1e-9 is below scale_params' 1e-3 floor, so the
    # dimensions it would give are built directly
    dims = HullDims(LOA=80.0, L_b=0.25 * 80.0, L_s=0.25 * 80.0, B_d=1e-9 * 80.0,
                    D_d=0.08 * 80.0, B_s=0.5 * 1e-9 * 80.0 / 2.0, WL=0.75 * 0.08 * 80.0)
    res = aggregate_total_resistance(dims)
    assert res.R_w.sum() < 0.01 * res.aggregate
    assert res.aggregate == pytest.approx(res.R_f.sum(), rel=1e-6)


@pytest.mark.parametrize("dims", SHAPES.values(), ids=list(SHAPES))
def test_aggregate_grid_matches_scalar_cells(dims):
    res = aggregate_total_resistance(dims)
    for j, df in enumerate(DRAFT_FRACTIONS):
        s_at = wetted_surface_area(dims, df)
        assert isinstance(s_at, float)
        for i, fr in enumerate(FROUDE_NUMBERS):
            U = speed_at(float(fr), dims)
            rw, change = michell_wave_resistance(dims, U, df)
            assert isinstance(rw, float) and isinstance(change, float)
            rf = friction_resistance(friction_coefficient(U * dims.LOA / 1.19e-6), U, s_at, dims)
            assert res.R_w[i, j] == pytest.approx(rw, rel=1e-12, abs=0.0)
            assert res.R_f[i, j] == pytest.approx(rf, rel=1e-12, abs=0.0)
    # a prism has no slope, so no thin-ship waves
    tapered = dims.L_b > 0 or dims.L_s > 0
    assert np.all(res.R_w > 0) if tapered else np.all(res.R_w == 0.0)
    assert res.aggregate == pytest.approx(res.R_T.sum(), rel=1e-12)


def test_aggregate_zero_beam_has_exactly_zero_wave_resistance():
    dims = HullDims(LOA=80.0, L_b=20.0, L_s=20.0, B_d=0.0, D_d=6.4, B_s=0.0, WL=4.8)
    res = aggregate_total_resistance(dims)
    assert np.all(res.R_w == 0.0)
    assert np.all(res.C_w == 0.0)
    assert np.all(res.R_w_halving_change == 0.0)
    assert np.all(res.R_f > 0)


def test_grid_calls_match_elementwise_calls():
    dims = canonical_dims()
    drafts = np.array(DRAFT_FRACTIONS)
    areas = wetted_surface_area(dims, drafts)
    assert areas.shape == (4,)
    for j, df in enumerate(drafts):
        assert areas[j] == pytest.approx(wetted_surface_area(dims, float(df)), rel=1e-12)
    U = np.array([speed_at(0.15, dims), speed_at(0.4, dims)])
    grid, change = michell_wave_resistance(dims, U[:, None], drafts[None, :])
    assert grid.shape == change.shape == (2, 4)
    for i in range(2):
        for j in range(4):
            cell, c = michell_wave_resistance(dims, U[i], drafts[j])
            assert grid[i, j] == pytest.approx(cell, rel=1e-12)
            assert change[i, j] == pytest.approx(c, rel=1e-9, abs=1e-15)
    with pytest.raises(ValueError):
        michell_wave_resistance(dims, np.array([5.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        wetted_surface_area(dims, np.array([0.5, 1.5]))
