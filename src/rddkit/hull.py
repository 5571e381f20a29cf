"""Parametric hull geometry and calm-water resistance.

Geometry: a six-parameter hull scaled off the length overall,

    L_b = p1*LOA   L_s = p2*LOA   B_d = p3*LOA
    D_d = p4*LOA   B_s = p5*B_d/2 WL  = p6*D_d

with half-breadth eta(x, z) = deck(x) * (1 - (z/D_d)^2). The deck curve is a
parallel midbody of half-beam B_d/2 between the bow taper (length L_b) and
the stern taper (length L_s). A taper runs from its hull end x_end over L
to its plateau joint (L_b from the bow at 0, -L_s from the stern at LOA):

    deck(x) = B_d/2 - (B_d/2 - b_end) (1 - w)^2,  w = (x - x_end) / L in [0, 1],

flat at the joint, with b_end = 0 at the bow and B_s/2 at the stern.

Resistance: thin-ship wave resistance from the Michell integral

    R_w = 4 rho g^2 / (pi U^2) * int_1^inf (I^2 + J^2) lambda^2 / sqrt(lambda^2 - 1) dlambda
    I   = int int eta_x(x, z) e^{lambda^2 k0 z} cos(lambda k0 x) dx dz,  k0 = g / U^2

(J the sine counterpart) plus an ITTC-style friction line
C_f = 0.075 / (log10(Re) - 2)^2 with R_f = 1/2 C_f rho U^2 S_At LOA^2.
The slope field of this hull family separates as eta_x = gamma(x) f(z) with
gamma piecewise linear and f quadratic, so the inner (x, z) integrals are
evaluated in closed form; only the outer lambda integral is numerical, with
the substitution lambda = cosh(u) removing the endpoint singularity.
Totals are aggregated over 8 Froude numbers in [0.1, 0.45] and draft
fractions {0.25, 0.33, 0.5, 0.67} of the waterline depth.
"""

import math
from dataclasses import dataclass

import numpy as np

from rddkit.exceptions import InfeasibleHullError, NumericalError

RHO = 1000.0      # kg/m^3
G = 9.81          # m/s^2
NU = 1.19e-6      # m^2/s, kinematic viscosity of water
U_MAX = 8.0       # upper end of the Michell integral in u, lambda = cosh(u)

FROUDE_NUMBERS = np.linspace(0.1, 0.45, 8)
DRAFT_FRACTIONS = (0.25, 0.33, 0.5, 0.67)
N_PARAMS = 6      # the fractions that scale_params maps onto a hull
N_LAMBDA = 256    # Simpson intervals of the Michell integral
# lengths overall, in metres, that the resistance model is evaluated at: a
# shorter hull gives Reynolds numbers below the friction line's floor of 100,
# and a much longer one overflows the wave terms
LOA_RANGE = (0.1, 1e4)


@dataclass
class HullDims:
    """Physical dimensions in metres; scale_params builds them from fractions
    that constraint_violation accepts. Taper lengths may be zero."""
    LOA: float
    L_b: float
    L_s: float
    B_d: float
    D_d: float
    B_s: float
    WL: float


def check_loa(loa):
    """InfeasibleHullError unless loa lies in LOA_RANGE: the one LOA rule."""
    if not LOA_RANGE[0] <= loa <= LOA_RANGE[1]:
        raise InfeasibleHullError(f"LOA must lie in [{LOA_RANGE[0]}, {LOA_RANGE[1]:g}] m, "
                                  f"got {loa}")


def scale_params(p, loa):
    """Map the vector of N_PARAMS fractions onto physical dimensions.

    InfeasibleHullError exactly when constraint_violation rejects p, or when
    check_loa rejects loa; every dimension is a fraction of loa."""
    p = np.asarray(p, dtype=np.float64)
    violation = constraint_violation(p[None])[0]
    if not violation == 0.0:
        raise InfeasibleHullError(f"hull parameters violate the design constraints by "
                                  f"{violation}: {p}")
    check_loa(loa)
    return HullDims(
        LOA=float(loa),
        L_b=float(p[0] * loa),
        L_s=float(p[1] * loa),
        B_d=float(p[2] * loa),
        D_d=float(p[3] * loa),
        B_s=float(p[4] * p[2] * loa / 2.0),
        WL=float(p[5] * p[3] * loa),
    )


def constraint_violation(P):
    """Infeasibility, (n,), of (n, N_PARAMS) parameter rows: 0 when every
    fraction lies in [1e-3, 1] and p0 + p1 <= 1, else the summed overshoot of
    that range or, inside it, the taper excess p0 + p1 - 1; NaN for a NaN row.
    This is the one feasibility rule of hull parameters."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != N_PARAMS:
        raise ValueError(f"hull designs are (n, {N_PARAMS}) rows, got shape {P.shape}")
    violation = np.sum(np.maximum(0.0, P - 1.0) + np.maximum(0.0, 1e-3 - P), axis=1)
    taper = P[:, 0] + P[:, 1] - 1.0
    return np.where((violation == 0.0) & (taper > 0.0), taper, violation)


def _tapers(dims):
    """The tapers of the module docstring as (x_end, L, beam_joint, beam_end),
    beam_joint = B_d/2 and beam_end = b_end; a zero-length taper is left out."""
    half = dims.B_d / 2.0
    tapers = ((0.0, dims.L_b, half, 0.0), (dims.LOA, -dims.L_s, half, dims.B_s / 2.0))
    return [taper for taper in tapers if taper[1] != 0]


def _deck(x, dims):
    """Deck half-beam and its slope d/dx at x in [0, LOA]; vectorized.

    The slope is continuous because the tapers join the plateau flat."""
    x = np.asarray(x, dtype=np.float64)
    beam, slope = np.full(x.shape, dims.B_d / 2.0), np.zeros(x.shape)
    for x_end, L, joint, end in _tapers(dims):
        r = 1.0 - (x - x_end) / L      # 1 - w
        m = r > 0.0
        beam[m] = joint - (joint - end) * r[m] ** 2
        slope[m] = 2.0 * (joint - end) / L * r[m]
    return beam, slope


def half_breadth(x, z, dims):
    """eta(x, z): deck curve attenuated by the parabolic depth factor."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(x < 0) or np.any(x > dims.LOA):
        raise ValueError(f"x outside [0, {dims.LOA}]")
    if np.any(z > 0) or np.any(z < -dims.D_d):
        raise ValueError(f"z outside [-{dims.D_d}, 0]")
    val = _deck(x, dims)[0] * (1.0 - (z / dims.D_d) ** 2)
    return float(val) if val.ndim == 0 else val


def _simpson_weights(n, h):
    # composite Simpson on n intervals (n even), n+1 nodes
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _surface_patch(dims, x_lo, x_hi, t_draft, nx, nz):
    """Simpson integral of sqrt(1 + eta_x^2 + eta_z^2) over one smooth region,
    for each draft depth in the 1-d array t_draft."""
    if x_hi <= x_lo or nx < 2:
        return 0.0
    xs = np.linspace(x_lo, x_hi, nx + 1)
    zs = np.linspace(-t_draft, 0.0, nz + 1, axis=-1)        # (n_draft, nz + 1)
    wx = _simpson_weights(nx, (x_hi - x_lo) / nx)
    wz = _simpson_weights(nz, (t_draft / nz)[:, None])
    deck, slope = (v[:, None] for v in _deck(xs, dims))
    zrow = zs[:, None, :]
    fz = 1.0 - (zrow / dims.D_d) ** 2
    eta_x = slope * fz
    eta_z = deck * (-2.0 * zrow / dims.D_d ** 2)
    integrand = np.sqrt(1.0 + eta_x ** 2 + eta_z ** 2)     # (n_draft, nx + 1, nz + 1)
    return ((wx @ integrand)[:, None, :] @ wz[:, :, None])[:, 0, 0]


def wetted_surface_area(dims, draft_fraction, nx=128, nz=32):
    """Non-dimensional wetted area of both hull sides at the given draft.

    draft_fraction may be an array; a scalar returns a float. The
    x-quadrature is split at the taper joints so every Simpson panel sees a
    smooth integrand; nx is the total interval budget.
    """
    df = np.asarray(draft_fraction, dtype=np.float64)
    if np.any(~((df > 0) & (df <= 1))):
        raise ValueError(f"draft fraction must be in (0, 1], got {draft_fraction}")
    t_draft = df.reshape(-1) * dims.WL
    x_s = dims.LOA - dims.L_s
    n_bow = max(2, 2 * round(nx * dims.L_b / dims.LOA / 2)) if dims.L_b > 0 else 0
    n_stern = max(2, 2 * round(nx * dims.L_s / dims.LOA / 2)) if dims.L_s > 0 else 0
    n_mid = max(2, nx - n_bow - n_stern) if x_s > dims.L_b else 0
    area = _surface_patch(dims, 0.0, dims.L_b, t_draft, n_bow, nz)
    area = area + _surface_patch(dims, dims.L_b, x_s, t_draft, n_mid, nz)
    area = area + _surface_patch(dims, x_s, dims.LOA, t_draft, n_stern, nz)
    area = 2.0 * area  # both sides
    if not np.all(np.isfinite(area)):
        raise NumericalError("wetted surface quadrature produced a non-finite value")
    area = (area / dims.LOA ** 2).reshape(df.shape)
    return float(area) if area.ndim == 0 else area


def _one_minus_cos(y):
    return 2.0 * np.sin(y / 2.0) ** 2


def _y_minus_sin(y):
    # y - sin(y), stable for small y
    small = np.abs(y) < 1e-2
    y2 = y * y
    series = y * y2 / 6.0 * (1.0 - y2 / 20.0 * (1.0 - y2 / 42.0))
    return np.where(small, series, y - np.sin(y))


def _phi(y):
    # int_0^1 s^2 e^{-y s} ds
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    small = y < 0.5
    ys = y[small]
    acc = np.full_like(ys, 1.0 / 3.0)
    term = np.ones_like(ys)
    for k in range(1, 14):
        term = term * (-ys) / k
        acc = acc + term / (k + 3)
    out[small] = acc
    yl = y[~small]
    out[~small] = (2.0 - np.exp(-yl) * (yl * yl + 2.0 * yl + 2.0)) / yl ** 3
    return out


def _psi(y):
    # int_0^1 e^{-y s} ds
    return -np.expm1(-y) / y


def _slope_transform(dims, omega):
    """Closed-form transforms Xc + i Xs = int gamma(x) e^{i omega x} dx of the
    deck slope gamma: zero on the plateau and k (1 - w) on a taper, k = 2
    (beam_joint - beam_end) / L, so each taper adds k |L| e^{i omega x_end} times
    int_0^1 (1 - w) e^{i a w} dw = (1 - cos a + i (a - sin a)) / a^2, a = omega L."""
    Xc, Xs = np.zeros_like(omega), np.zeros_like(omega)
    for x_end, L, joint, end in _tapers(dims):
        a = omega * L
        scale = math.copysign(2.0 * (joint - end), L) / a ** 2     # k |L| / a^2
        re, im = scale * _one_minus_cos(a), scale * _y_minus_sin(a)
        cos0, sin0 = np.cos(omega * x_end), np.sin(omega * x_end)
        Xc += cos0 * re - sin0 * im
        Xs += sin0 * re + cos0 * im
    return Xc, Xs


def michell_wave_resistance(dims, U, draft_fraction, n_lambda=N_LAMBDA):
    """Thin-ship wave resistance at speed U and the given draft fraction.

    Returns (R_w, change): change is the relative move of each R_w under
    node halving, |R(n) - R(n/2)| / R(n), and 0 where R_w is 0. The
    oscillation rate grows like 1/Fr^2, so low-Froude cells move most.
    U and draft_fraction broadcast against each other (speeds down a column
    and drafts along a row give the whole grid in one call); scalar inputs
    give two floats. The lambda integral runs over lambda = cosh(u),
    u in [0, U_MAX], with composite Simpson on n_lambda intervals;
    sqrt(lambda^2 - 1) cancels against the substitution Jacobian.
    """
    U = np.asarray(U, dtype=np.float64)
    df = np.asarray(draft_fraction, dtype=np.float64)
    if np.any(~(U > 0)):
        raise ValueError(f"speed must be positive, got {U}")
    if np.any(~((df > 0) & (df <= 1))):
        raise ValueError(f"draft fraction must be in (0, 1], got {draft_fraction}")
    if n_lambda % 4 != 0:
        raise ValueError("n_lambda must be a multiple of 4")
    t_draft = (df * dims.WL)[..., None]
    k0 = (G / U ** 2)[..., None]
    u = np.linspace(0.0, U_MAX, n_lambda + 1)
    lam = np.cosh(u)
    omega = lam * k0                   # depends on speed only
    a = lam ** 2 * k0 * t_draft
    Z = t_draft * _psi(a) - (t_draft ** 3 / dims.D_d ** 2) * _phi(a)
    Xc, Xs = _slope_transform(dims, omega)
    integrand = (Xc ** 2 + Xs ** 2) * Z ** 2 * lam ** 2

    val_fine = integrand @ _simpson_weights(n_lambda, U_MAX / n_lambda)
    R_w = 4.0 * RHO * G ** 2 / (math.pi * U ** 2) * val_fine
    R_w = float(R_w) if R_w.ndim == 0 else R_w
    val_coarse = integrand[..., ::2] @ _simpson_weights(n_lambda // 2, 2 * U_MAX / n_lambda)
    with np.errstate(divide="ignore", invalid="ignore"):
        change = np.where(val_fine > 0, np.abs(val_fine - val_coarse) / val_fine, 0.0)
    return R_w, (float(change) if change.ndim == 0 else change)


def wave_resistance_coefficient(R_w, U, dims):
    """C_w = R_w / (1/2 rho U^2 LOA^2)."""
    return R_w / (0.5 * RHO * U ** 2 * dims.LOA ** 2)


def friction_coefficient(Re):
    """ITTC-style friction line, log base 10."""
    if Re <= 100.0:
        raise ValueError(f"Reynolds number must exceed 100, got {Re}")
    return 0.075 / (math.log10(Re) - 2.0) ** 2


def friction_resistance(C_f, U, S_At, dims):
    """R_f = 1/2 C_f rho U^2 S_At LOA^2 (S_At is non-dimensional)."""
    return 0.5 * C_f * RHO * U ** 2 * S_At * dims.LOA ** 2


@dataclass
class ResistanceResult:
    froude_numbers: np.ndarray
    draft_fractions: np.ndarray
    R_w: np.ndarray
    R_f: np.ndarray
    R_T: np.ndarray
    C_w: np.ndarray
    C_f: np.ndarray
    aggregate: float
    R_w_halving_change: np.ndarray  # per cell, relative move under node halving


def aggregate_total_resistance(dims, n_lambda=N_LAMBDA):
    """Total resistance over the 8 x 4 Froude/draft grid.

    The whole grid goes through one Michell call and the wetted area, which
    depends on draft only, through one call over the drafts. Cells are
    summed one by one in a fixed order (Froude major), so the aggregate is
    deterministic.
    """
    froude = FROUDE_NUMBERS.copy()
    drafts = np.array(DRAFT_FRACTIONS)
    U = froude * math.sqrt(G * dims.LOA)
    C_f = np.array([friction_coefficient(Re) for Re in U * dims.LOA / NU])
    R_w, change = michell_wave_resistance(dims, U[:, None], drafts[None, :], n_lambda=n_lambda)
    s_at = wetted_surface_area(dims, drafts)
    R_f = friction_resistance(C_f[:, None], U[:, None], s_at[None, :], dims)
    R_T = R_w + R_f
    return ResistanceResult(
        froude_numbers=froude,
        draft_fractions=drafts,
        R_w=R_w,
        R_f=R_f,
        R_T=R_T,
        C_w=wave_resistance_coefficient(R_w, U[:, None], dims),
        C_f=np.repeat(C_f[:, None], drafts.size, axis=1),
        aggregate=float(np.add.accumulate(R_T.ravel())[-1]),
        R_w_halving_change=change,
    )


def aggregate_resistances(P, loa):
    """Aggregate total resistance, (n,), of (n, N_PARAMS) parameter rows;
    check_loa runs once per batch, so an empty batch refuses a bad loa too."""
    check_loa(loa)
    return np.fromiter((aggregate_total_resistance(scale_params(p, loa)).aggregate for p in P),
                       dtype=np.float64, count=len(P))
