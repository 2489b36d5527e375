"""Finite-key secret-key lengths for sending-or-not-sending twin-field QKD.

The protocol model: every repetition-rate slot is a Z window with
probability p_z, otherwise a decoy X window.  In a Z window each party
sends a phase-randomised pulse of intensity mu_z with probability p_send
(their key bit) or nothing.  In an X window each party independently sends
one of the decoy intensities {0, mu1, mu2} with probabilities
{p0, p1, 1 - p0 - p1} and a uniformly random phase.  The measurement node
reports clicks; pairs where both sides sent mu1 with phases inside a slice
of half-width delta (around 0 or pi) estimate the phase-flip error.

Detection is a threshold-detector click model: a pulse ensemble with mean
detected photon number nu clicks with probability

    p_click = 1 - (1 - P_dc) exp(-nu).

The secret-key length of a block is

    SKL = n1 (1 - h(e1_ph)) - lambda_EC - 2 log2[(2/eps_cor) * (2/(sqrt(2) eps_PA eps_hat))]

with lambda_EC = f_EC * n_raw * h(E_Z), an analytic two-decoy lower bound
on the untagged single-photon bits n1, and a click-count upper bound on
e1_ph.  Statistical deviations use two-sided multiplicative Chernoff-style
bounds at the configured failure probabilities (eps_n1 for the yield
estimation chain, eps_bar for the phase-error counts); the bound family is
isolated in ``chernoff_lower`` / ``chernoff_upper`` so it can be swapped.

A link block is a set of bins, each a pair of arm efficiencies (eta_a,
eta_b), sender to measurement node, with a pulse count; arrays of arms have
a trailing axis of 2.  ``symmetric_arms`` is the one place a total
twin-field link efficiency is split, into two arms of sqrt(efficiency).

The optimiser scores a block too large to batch (more than half of
``_BATCH_CELLS`` bins) one candidate a call, and keeps that block's costly
click kernels in a memo: the Z-window clicks keyed by mu_z, the X-window
clicks of every decoy pair keyed by (mu1, mu2), and the phase-slice
Gauss-Legendre sums keyed by (mu1, delta).  A candidate that changes only
p_send, p_z, p0 or p1 reuses all three.  Each kind is a least-recently-used
memo of at most ``_KERNEL_CAPS`` entries, which bounds its memory.  Batched
evaluations of small blocks compute their kernels inline: there the arrays
are small, and per-call overhead, not the kernels, sets the cost.  Either
way each count is computed by the same numpy operations on the same array
layout, so results are bit-identical.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SnsParams",
    "SecurityEpsilons",
    "ChannelModel",
    "ExpectedStatistics",
    "symmetric_arms",
    "SklBreakdown",
    "binary_entropy",
    "chernoff_lower",
    "chernoff_upper",
    "expected_statistics",
    "pooled_statistics",
    "monte_carlo_statistics",
    "estimate_untagged",
    "skl",
    "accumulate_link",
    "accumulate_links",
    "DEFAULT_PARAMS",
    "DEFAULT_GRID",
]

log = logging.getLogger(__name__)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class SnsParams:
    """SNS protocol parameters (intensities, window probabilities, slice width)."""

    mu_z: float = 0.45
    mu1: float = 0.02
    mu2: float = 0.25
    p_send: float = 0.04
    p_z: float = 0.8
    p0: float = 0.5
    p1: float = 0.3
    delta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.mu1 < self.mu2 < math.inf:
            raise ValueError("decoy intensities require 0 < mu1 < mu2 < inf")
        if not 0.0 <= self.mu_z < math.inf:
            raise ValueError("mu_z must be finite and >= 0")
        for name in ("p_send", "p_z", "p0", "p1"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.p0 + self.p1 >= 1.0:
            raise ValueError("p0 + p1 must leave room for the mu2 decoy")
        if not 0.0 < self.delta < math.pi:
            raise ValueError("delta must lie in (0, pi)")

    @property
    def p2(self) -> float:
        return 1.0 - self.p0 - self.p1


@dataclass(frozen=True)
class SecurityEpsilons:
    """Failure probabilities of the finite-key analysis (all 1e-10 baseline)."""

    eps_cor: float = 1e-10
    eps_pa: float = 1e-10
    eps_hat: float = 1e-10
    eps_bar: float = 1e-10
    eps_n1: float = 1e-10

    def __post_init__(self):
        for name in ("eps_cor", "eps_pa", "eps_hat", "eps_bar", "eps_n1"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")

    @property
    def eps_sec(self) -> float:
        return self.eps_pa + self.eps_hat + self.eps_bar + self.eps_n1

    @property
    def eps_tol(self) -> float:
        return self.eps_cor + self.eps_sec


@dataclass(frozen=True)
class ChannelModel:
    """Detector and channel constants of the ``[channel]`` scenario section.

    Arm efficiencies vary bin by bin, so they travel with their pulse counts.
    """

    detector_efficiency: float = 0.5
    dark_count_prob: float = 1e-9
    optical_error: float = 0.05
    rep_rate_hz: float = 1e9
    error_correction_factor: float = 1.11

    def __post_init__(self):
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError("dark_count_prob must lie in [0, 1)")
        if not 0.0 <= self.optical_error <= 0.5:
            raise ValueError("optical_error must lie in [0, 0.5]")
        if not (0 < self.rep_rate_hz < math.inf and 1.0 <= self.error_correction_factor < math.inf):
            raise ValueError("bad repetition rate or error-correction factor")


def symmetric_arms(efficiency: float) -> tuple[float, float]:
    """Equal arm efficiencies of a twin-field link of total ``efficiency``."""
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"link efficiency must lie in [0, 1], got {efficiency}")
    arm = math.sqrt(efficiency)
    return arm, arm


def _checked_arms(arms, shape: tuple) -> np.ndarray:
    """``arms`` as a float array of ``shape``; ValueError on another shape or NaN/outside [0, 1]."""
    out = np.asarray(arms, dtype=float)
    if out.shape != shape:
        raise ValueError(f"arm efficiencies must have shape {shape}, got {out.shape}")
    if not np.all((out >= 0.0) & (out <= 1.0)):
        raise ValueError("arm efficiencies must lie in [0, 1]")
    return out


@dataclass
class ExpectedStatistics:
    """Deterministic expected counts of one pooled block.

    ``x_pairs`` / ``x_clicks`` are 3x3 arrays indexed by (side-a intensity,
    side-b intensity) with 0 = vacuum, 1 = mu1, 2 = mu2.
    """

    params: SnsParams
    n_pulses: float
    dark_count_prob: float
    optical_error: float
    error_correction_factor: float
    n_z: float = 0.0
    z_clicks: float = 0.0
    z_errors: float = 0.0
    x_pairs: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    x_clicks: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    slice_pairs: float = 0.0
    slice_error_clicks: float = 0.0
    slice_correct_clicks: float = 0.0
    # filled by the tagged Monte-Carlo oracle only
    tagged_untagged_clicks: float | None = None


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def chernoff_lower(expected: float, eps: float) -> float:
    """Lower bound compatible with failure probability ``eps``."""
    if expected <= 0.0:
        return 0.0
    return max(0.0, expected - math.sqrt(2.0 * expected * math.log(1.0 / eps)))


def chernoff_upper(expected: float, eps: float) -> float:
    """Upper bound compatible with failure probability ``eps``."""
    if expected < 0.0:
        raise ValueError("expected count must be >= 0")
    return expected + math.sqrt(2.0 * expected * math.log(1.0 / eps)) + math.log(1.0 / eps)


def _click(nu, pdc):
    return 1.0 - (1.0 - pdc) * np.exp(-nu)


def _candidate_table(candidates, pdc) -> np.ndarray:
    """(P, 14) per-candidate constants, each formed as the scalar code forms it.

    Columns 0-2 are the intensities (0, mu1, mu2), 3-5 their probabilities.
    """
    rows = []
    for p in candidates:
        ps = p.p_send
        rows.append((
            0.0, p.mu1, p.mu2, p.p0, p.p1, p.p2, p.mu_z, p.p_z, 1.0 - p.p_z, p.delta,
            ps * (1.0 - ps), ps**2, (1.0 - ps) ** 2 * pdc, min(1.0, 2.0 * p.delta / math.pi),
        ))
    return np.array(rows)


def _z_clicks(ta, tb, mu_z, pdc):
    """Z-window kernel: single-sender clicks c_a + c_b and both-sender clicks c_ab."""
    c_a = _click(mu_z * ta, pdc)
    c_b = _click(mu_z * tb, pdc)
    c_ab = _click(mu_z * (ta + tb), pdc)
    return c_a + c_b, c_ab


def _x_clicks(ta, tb, mus, pdc):
    """X-window kernel: clicks of every decoy intensity pair (u, v), shape (P, 3, 3, B)."""
    ta4, tb4 = ta[:, None, None, :], tb[:, None, None, :]
    arrive = mus[:, :, None, None] * ta4 + mus[:, None, :, None] * tb4
    return _click(arrive, pdc)


def _slice_clicks(ta, tb, mu1, delta, eopt, pdc):
    """Phase-slice kernel: per-bin error and correct clicks, Gauss-Legendre over +-delta."""
    colsum = ta + tb
    vis = np.where(colsum > 0, 2.0 * np.sqrt(ta * tb) / np.where(colsum > 0, colsum, 1.0), 0.0)
    base = 0.5 * (mu1 * colsum)[..., None]
    mod = (vis * (1.0 - 2.0 * eopt))[..., None] * np.cos(delta * _GL_NODES)[:, None, :]
    wmean = _GL_WEIGHTS / 2.0
    err = (_click(base * (1.0 - mod), pdc) * wmean).sum(axis=-1)
    cor = (_click(base * (1.0 + mod), pdc) * wmean).sum(axis=-1)
    return err, cor


# Entries each block's kernel memo keeps per kind, least recently used out.
_KERNEL_CAPS = {"z": 4, "x": 4, "slice": 8}


class _KernelMemo:
    """One block's click kernels, reused across one-candidate evaluations.

    Each kind is keyed by the only parameters its kernel reads: ``z`` by
    mu_z, ``x`` by (mu1, mu2), ``slice`` by (mu1, delta).  The block's arms
    and the channel are fixed for the memo's lifetime.
    """

    def __init__(self):
        self.caches = {kind: OrderedDict() for kind in _KERNEL_CAPS}
        self.hits = dict.fromkeys(_KERNEL_CAPS, 0)
        self.misses = dict.fromkeys(_KERNEL_CAPS, 0)

    def __call__(self, kind, key, kernel, *args):
        cache = self.caches[kind]
        if key in cache:
            self.hits[kind] += 1
            cache.move_to_end(key)
            return cache[key]
        self.misses[kind] += 1
        value = cache[key] = kernel(*args)
        if len(cache) > _KERNEL_CAPS[kind]:
            cache.popitem(last=False)
        return value


def _inline(kind, key, kernel, *args):
    return kernel(*args)


def pooled_statistics(
    channel: ChannelModel, params, arms, pulses, kernels: _KernelMemo | None = None
) -> ExpectedStatistics | list[ExpectedStatistics]:
    """Expected counts pooled over bins of ((eta_a, eta_b), pulse count).

    ``params`` is one ``SnsParams`` (the result is one ExpectedStatistics)
    or a sequence of P candidates (the result is a list, one per
    candidate).  The pulse counts are shared, of shape (B,), or one row per
    candidate, of shape (P, B); ``arms`` has their shape plus a trailing
    axis of the two arm efficiencies.  The arm values are not range-checked
    here: the public entry points check each block once.  Every
    per-candidate sum runs over the last, contiguous axis, so a candidate's
    counts do not depend on the others in its batch.  ``kernels``, the
    optimiser's memo for this block and channel, serves one candidate only.
    """
    candidates = [params] if isinstance(params, SnsParams) else list(params)
    arms = np.asarray(arms, dtype=float)
    w = np.atleast_1d(np.asarray(pulses, dtype=float))
    if arms.shape != w.shape + (2,):
        raise ValueError("arm efficiencies and pulse counts must align")
    ta = arms[..., 0] * channel.detector_efficiency
    tb = arms[..., 1] * channel.detector_efficiency
    if w.ndim == 1:
        w, ta, tb = w[None], ta[None], tb[None]
    elif w.ndim != 2 or w.shape[0] != len(candidates):
        raise ValueError("per-candidate bins need one row per candidate")
    if kernels is None:
        kernel = _inline
    elif len(candidates) == 1:
        kernel = kernels
    else:
        raise ValueError("a kernel memo serves one candidate a call")
    pdc = channel.dark_count_prob
    eopt = channel.optical_error
    table = _candidate_table(candidates, pdc)
    # (P, 1) columns against bins of shape (1 or P, B)
    (_, mu1, _, _, p1, _, mu_z, p_z, p_x, delta, ps_single, ps_both, none_dark, f_slice) = (
        table.T[:, :, None]
    )
    nz = w * p_z
    nx = w * p_x
    first = candidates[0]  # the memo's key; _inline ignores it

    # Z windows: send/not-send patterns
    c_sum, c_ab = kernel("z", first.mu_z, _z_clicks, ta, tb, mu_z, pdc)
    singles = ps_single * c_sum
    z_clicks = (nz * (singles + ps_both * c_ab + none_dark)).sum(axis=-1)
    z_errors = (nz * (ps_both * c_ab + none_dark + eopt * singles)).sum(axis=-1)

    # X windows: all ordered decoy intensity pairs (u, v) on axes 1 and 2
    mus, probs = table[:, 0:3], table[:, 3:6]
    pairs = nx[:, None, None, :] * probs[:, :, None, None] * probs[:, None, :, None]
    x_pairs = pairs.sum(axis=-1)
    clicks = kernel("x", (first.mu1, first.mu2), _x_clicks, ta, tb, mus, pdc)
    x_clicks = (pairs * clicks).sum(axis=-1)

    # phase-slice subsample of the (mu1, mu1) pairs
    sl_pairs = nx * p1 * p1 * f_slice
    err_in, cor_in = kernel(
        "slice", (first.mu1, first.delta), _slice_clicks, ta, tb, mu1, delta, eopt, pdc
    )
    err = (sl_pairs * err_in).sum(axis=-1)
    cor = (sl_pairs * cor_in).sum(axis=-1)

    n_pulses = np.broadcast_to(w.sum(axis=-1), (len(candidates),))
    columns = zip(
        candidates, n_pulses.tolist(), nz.sum(axis=-1).tolist(), z_clicks.tolist(),
        z_errors.tolist(), x_pairs, x_clicks, sl_pairs.sum(axis=-1).tolist(),
        err.tolist(), cor.tolist(),
    )
    out = [
        ExpectedStatistics(
            params=p,
            n_pulses=n,
            dark_count_prob=pdc,
            optical_error=eopt,
            error_correction_factor=channel.error_correction_factor,
            n_z=n_z,
            z_clicks=zc,
            z_errors=ze,
            x_pairs=xp,
            x_clicks=xc,
            slice_pairs=sp,
            slice_error_clicks=se,
            slice_correct_clicks=sc,
        )
        for p, n, n_z, zc, ze, xp, xc, sp, se, sc in columns
    ]
    return out[0] if isinstance(params, SnsParams) else out


def expected_statistics(
    channel: ChannelModel, params: SnsParams, arms, n_pulses: float
) -> ExpectedStatistics:
    """Expected counts of a single block with arm efficiencies ``arms``."""
    arms = _checked_arms(arms, (2,))
    if not (n_pulses >= 1 and math.isfinite(n_pulses)):
        raise ValueError("n_pulses must be finite and >= 1")
    return pooled_statistics(channel, params, arms[None], np.array([float(n_pulses)]))


def monte_carlo_statistics(
    channel: ChannelModel,
    params: SnsParams,
    arms,
    n_samples: int,
    seed: int = 0,
    tagged: bool = False,
    chunk: int = 1_000_000,
) -> ExpectedStatistics:
    """Sampled counts from a photon-level click simulation (test oracle).

    Draws photon numbers per pulse, thins them through the arm
    transmittances, and adds dark counts, instead of evaluating the closed
    forms.  With ``tagged=True`` the count of Z-window clicks caused by a
    single emitted photon with exactly one sender is recorded.
    """
    ta, tb = (eta * channel.detector_efficiency for eta in _checked_arms(arms, (2,)).tolist())
    rng = np.random.default_rng(seed)
    p = params
    pdc = channel.dark_count_prob
    eopt = channel.optical_error
    stats = ExpectedStatistics(
        params=p,
        n_pulses=float(n_samples),
        dark_count_prob=pdc,
        optical_error=eopt,
        error_correction_factor=channel.error_correction_factor,
    )
    mus = np.array([0.0, p.mu1, p.mu2])
    probs = np.array([p.p0, p.p1, p.p2])
    tagged_clicks = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        done += m
        is_z = rng.random(m) < p.p_z
        nz = int(np.sum(is_z))
        nx = m - nz
        stats.n_z += nz

        # --- Z windows
        send_a = rng.random(nz) < p.p_send
        send_b = rng.random(nz) < p.p_send
        ph_a = rng.poisson(p.mu_z * send_a)
        ph_b = rng.poisson(p.mu_z * send_b)
        arr_a = rng.binomial(ph_a, ta)
        arr_b = rng.binomial(ph_b, tb)
        dark = rng.random(nz) < pdc
        click = (arr_a + arr_b > 0) | dark
        stats.z_clicks += float(np.sum(click))
        one_send = send_a ^ send_b
        flip = rng.random(nz) < eopt
        err = click & ((send_a & send_b) | (~send_a & ~send_b) | (one_send & flip))
        stats.z_errors += float(np.sum(err))
        if tagged:
            tagged_clicks += float(np.sum(click & one_send & (ph_a + ph_b == 1)))

        # --- X windows
        ia = rng.choice(3, size=nx, p=probs)
        ib = rng.choice(3, size=nx, p=probs)
        ph_a = rng.poisson(mus[ia])
        ph_b = rng.poisson(mus[ib])
        arr_a = rng.binomial(ph_a, ta)
        arr_b = rng.binomial(ph_b, tb)
        dark = rng.random(nx) < pdc
        click = (arr_a + arr_b > 0) | dark
        np.add.at(stats.x_pairs, (ia, ib), 1.0)
        np.add.at(stats.x_clicks, (ia, ib), click.astype(float))

        # --- phase slice: re-draw the (mu1, mu1) pairs at the port level
        both1 = (ia == 1) & (ib == 1)
        n11 = int(np.sum(both1))
        dphi = rng.uniform(-math.pi, math.pi, size=n11)
        folded = np.minimum(np.abs(dphi), math.pi - np.abs(dphi))
        in_slice = folded <= p.delta
        nsl = int(np.sum(in_slice))
        stats.slice_pairs += nsl
        if nsl:
            d = dphi[in_slice]
            anti = np.abs(d) > math.pi / 2.0  # pi-aligned slice: ports swap
            cosd = np.cos(np.where(anti, math.pi - np.abs(d), np.abs(d)))
            s_tot = p.mu1 * (ta + tb)
            vis = 2.0 * math.sqrt(ta * tb) / (ta + tb) if ta + tb > 0 else 0.0
            ierr = 0.5 * s_tot * (1.0 - vis * (1.0 - 2.0 * eopt) * cosd)
            icor = 0.5 * s_tot * (1.0 + vis * (1.0 - 2.0 * eopt) * cosd)
            err_click = (rng.poisson(ierr) > 0) | (rng.random(nsl) < pdc)
            cor_click = (rng.poisson(icor) > 0) | (rng.random(nsl) < pdc)
            stats.slice_error_clicks += float(np.sum(err_click))
            stats.slice_correct_clicks += float(np.sum(cor_click))
    if tagged:
        stats.tagged_untagged_clicks = tagged_clicks
    return stats


def _decoy_y1_side(stats: ExpectedStatistics, side: str, eps_n1: float, asymptotic: bool) -> float:
    """Two-decoy lower bound on the single-photon yield of one arm."""
    p = stats.params
    xp, xc = stats.x_pairs.tolist(), stats.x_clicks.tolist()  # scalar math on Python floats
    if side == "a":
        pairs = (xp[1][0], xp[2][0])
        clicks = (xc[1][0], xc[2][0])
    else:
        pairs = (xp[0][1], xp[0][2])
        clicks = (xc[0][1], xc[0][2])
    pairs0, clicks0 = xp[0][0], xc[0][0]
    if min(pairs0, pairs[0], pairs[1]) <= 0:
        raise ValueError("decoy estimation needs vacuum and both decoy ensembles")
    if min(clicks0, clicks[0], clicks[1]) < 0:
        raise ValueError("non-physical statistics: negative click counts")
    if asymptotic:
        s1 = clicks[0] / pairs[0]
        s2 = clicks[1] / pairs[1]
        s0 = clicks0 / pairs0
        s0_low = s0
    else:
        s1 = chernoff_lower(clicks[0], eps_n1) / pairs[0]
        s2 = min(1.0, chernoff_upper(clicks[1], eps_n1) / pairs[1])
        s0 = min(1.0, chernoff_upper(clicks0, eps_n1) / pairs0)
        s0_low = chernoff_lower(clicks0, eps_n1) / pairs0
    mu1, mu2 = p.mu1, p.mu2
    num = mu2**2 * (s1 * math.exp(mu1) - s0) - mu1**2 * (s2 * math.exp(mu2) - s0_low)
    y1 = num / (mu1 * mu2 * (mu2 - mu1))
    return min(1.0, max(0.0, y1))


def estimate_untagged(
    stats: ExpectedStatistics,
    eps: SecurityEpsilons,
    asymptotic: bool = False,
) -> tuple[float, dict]:
    """Lower bound on the untagged single-photon Z bits of the block."""
    p = stats.params
    y1a = _decoy_y1_side(stats, "a", eps.eps_n1, asymptotic)
    y1b = _decoy_y1_side(stats, "b", eps.eps_n1, asymptotic)
    # single-send single-photon emission rate in Z windows per side
    base = stats.n_z * p.p_send * (1.0 - p.p_send) * p.mu_z * math.exp(-p.mu_z)
    n1 = base * (y1a + y1b)
    if not asymptotic:
        n1 = chernoff_lower(n1, eps.eps_n1)
    return max(0.0, n1), {"y1_a": y1a, "y1_b": y1b}


def _phase_error_upper(
    stats: ExpectedStatistics,
    eps: SecurityEpsilons,
    y1_mean: float,
    asymptotic: bool,
) -> float:
    """Upper bound on the phase-flip error of untagged bits from slice counts."""
    p = stats.params
    if stats.slice_pairs <= 0:
        return 0.5
    vac_err = stats.slice_pairs * math.exp(-2.0 * p.mu1) * stats.dark_count_prob
    if asymptotic:
        num = stats.slice_error_clicks - vac_err
    else:
        num = chernoff_upper(stats.slice_error_clicks, eps.eps_bar) - chernoff_lower(
            vac_err, eps.eps_bar
        )
    singles = stats.slice_pairs * 2.0 * p.mu1 * math.exp(-2.0 * p.mu1) * y1_mean
    if singles <= 0.0:
        return 0.5
    return min(0.5, max(0.0, num / singles))


def correction_term(eps: SecurityEpsilons) -> float:
    """Epsilon-dependent subtraction of the key-length formula, in bits (>= 0).

    Evaluates 2 log2[(2/eps_cor) (2/(sqrt2 eps_PA eps_hat))].
    """
    return 2.0 * math.log2(
        (2.0 / eps.eps_cor) * (2.0 / (math.sqrt(2.0) * eps.eps_pa * eps.eps_hat))
    )


@dataclass(frozen=True)
class SklBreakdown:
    """Finite-key output ledger of one block."""

    n_pulses: float
    n_raw: float
    qber_z: float
    n1_lower: float
    e1ph_upper: float
    lambda_ec: float
    skl_bits: float

    @staticmethod
    def zero() -> "SklBreakdown":
        return SklBreakdown(0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0)


def skl(
    stats: ExpectedStatistics,
    eps: SecurityEpsilons,
    asymptotic: bool = False,
) -> SklBreakdown:
    """Secret-key length of a block from its (expected or sampled) counts."""
    n_raw = stats.z_clicks
    if n_raw <= 0.0:
        return SklBreakdown(stats.n_pulses, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
    qber = min(1.0, stats.z_errors / n_raw)
    n1, info = estimate_untagged(stats, eps, asymptotic)
    e1 = _phase_error_upper(
        stats, eps, 0.5 * (info["y1_a"] + info["y1_b"]), asymptotic
    )
    lam_ec = stats.error_correction_factor * n_raw * binary_entropy(qber)
    bits = n1 * (1.0 - binary_entropy(e1)) - lam_ec - correction_term(eps)
    return SklBreakdown(
        n_pulses=stats.n_pulses,
        n_raw=n_raw,
        qber_z=qber,
        n1_lower=n1,
        e1ph_upper=e1,
        lambda_ec=lam_ec,
        skl_bits=max(0.0, bits),
    )


DEFAULT_PARAMS = SnsParams()

# Documented optimiser floor: the returned SKL is never below the best of
# these protocol settings.
DEFAULT_GRID = tuple(
    SnsParams(mu_z=mu_z, mu1=mu2 / 10.0, mu2=mu2, p_send=ps, p_z=pz, p0=0.5, p1=0.3, delta=d)
    for mu_z in (0.2, 0.45)
    for mu2 in (0.1, 0.3)
    for ps in (0.02, 0.06, 0.18)
    for pz in (0.6, 0.9)
    for d in (0.3, 1.0)
)

_BOUNDS = {
    "mu_z": (1e-4, 2.0),
    "mu2": (1e-3, 1.5),
    "ratio1": (0.02, 0.9),
    "p_send": (1e-4, 0.5),
    "p_z": (0.05, 0.995),
    "p0": (0.01, 0.97),
    "p1": (0.01, 0.97),
    "delta": (0.01, 1.5),
}
_COORDS = tuple(_BOUNDS)


def _params_to_vector(p: SnsParams) -> dict:
    return {
        "mu_z": p.mu_z,
        "mu2": p.mu2,
        "ratio1": p.mu1 / p.mu2,
        "p_send": p.p_send,
        "p_z": p.p_z,
        "p0": p.p0,
        "p1": p.p1,
        "delta": p.delta,
    }


def _vector_to_params(v: dict) -> SnsParams | None:
    if v["p0"] + v["p1"] >= 0.98:
        return None
    try:
        return SnsParams(
            mu_z=v["mu_z"],
            mu1=v["ratio1"] * v["mu2"],
            mu2=v["mu2"],
            p_send=v["p_send"],
            p_z=v["p_z"],
            p0=v["p0"],
            p1=v["p1"],
            delta=v["delta"],
        )
    except ValueError:
        return None


def _coordinate_search(start: SnsParams, max_evals: int):
    """Deterministic multiplicative coordinate descent inside the box.

    A generator: it yields each candidate it wants evaluated, is sent that
    candidate's objective value, and returns (best params, best value).
    Its path depends only on the values it is sent.
    """
    best_p = start
    best_v = yield start
    evals = 1
    step = 1.6
    while evals < max_evals and step > 1.005:
        improved = False
        vec = _params_to_vector(best_p)
        for name in _COORDS:
            for factor in (step, 1.0 / step):
                if evals >= max_evals:
                    break
                cand = dict(vec)
                lo, hi = _BOUNDS[name]
                cand[name] = min(hi, max(lo, cand[name] * factor))
                params = _vector_to_params(cand)
                if params is None:
                    continue
                val = yield params
                evals += 1
                if val > best_v:
                    best_v, best_p = val, params
                    vec = _params_to_vector(best_p)
                    improved = True
        if not improved:
            step = 1.0 + (step - 1.0) * 0.5
    return best_p, best_v


# Largest candidates x bins product of one batched evaluation.  Blocks with
# more bins than half this are evaluated one candidate per call: there a
# batch only adds memory traffic (and peak memory) to compute-bound arrays.
_BATCH_CELLS = 4096


def _evaluate(channel, eps, blocks, memos, kernels, requests) -> None:
    """Fill ``memos[j][params]`` with the ledger of every (j, params) request.

    Requests already memoised, or repeated, are evaluated once.  Blocks are
    batched only with blocks of the same bin count, never padded: padding
    changes numpy's pairwise sums, and with them the counts.  A block too
    large to batch is evaluated one candidate a call, reusing the click
    kernels in its memo ``kernels[j]``; batches compute theirs inline.
    """
    by_shape: dict = {}
    for j, params in requests:
        if params not in memos[j]:
            by_shape.setdefault(blocks[j][0].shape, {})[(j, params)] = None
    for shape, pending in by_shape.items():
        todo = list(pending)
        size = max(1, _BATCH_CELLS // shape[0])
        if size == 1:
            for j, params in todo:
                arms, pulses = blocks[j]
                stats = pooled_statistics(channel, params, arms, pulses, kernels[j])
                memos[j][params] = skl(stats, eps)
            continue
        for lo in range(0, len(todo), size):
            chunk = todo[lo : lo + size]
            rows = [j for j, _ in chunk]
            arms = np.stack([blocks[j][0] for j in rows])
            pulses = np.stack([blocks[j][1] for j in rows])
            stats = pooled_statistics(channel, [p for _, p in chunk], arms, pulses)
            for (j, params), st in zip(chunk, stats):
                memos[j][params] = skl(st, eps)


def _optimize_pooled(channel, eps, blocks, n_starts=3, max_evals=400, extra_seeds=()):
    """Optimise the SNS parameters of every (arms, pulses) block.

    Each block is scored on all of ``DEFAULT_GRID``, then refined by
    coordinate searches from its best grid points, ``extra_seeds`` and
    ``DEFAULT_PARAMS``.  All searches of all blocks run in lockstep: every
    round evaluates the pending candidate of each live search in one batched
    evaluation, and a search advances without one through points its block
    has already evaluated (a revisit still counts toward ``max_evals``).
    Returns one (params, SklBreakdown) per block.
    """
    memos: list[dict] = [{} for _ in blocks]
    kernels = [_KernelMemo() for _ in blocks]
    grid = [(j, p) for j in range(len(blocks)) for p in DEFAULT_GRID]
    _evaluate(channel, eps, blocks, memos, kernels, grid)
    best = []  # per block: (params, value), the grid's best to start with
    searches = []  # [block, search, pending candidate, result], seed order within a block
    for j, memo in enumerate(memos):
        scored = [(memo[p].skl_bits, i, p) for i, p in enumerate(DEFAULT_GRID)]
        scored.sort(key=lambda t: (-t[0], t[1]))
        best.append((scored[0][2], scored[0][0]))
        seeds = [scored[0][2], *extra_seeds, DEFAULT_PARAMS, scored[1][2]]
        for seed in seeds[: max(n_starts, 1 + len(extra_seeds))]:
            search = _coordinate_search(seed, max_evals)
            searches.append([j, search, next(search), None])

    live = searches
    while live:
        _evaluate(channel, eps, blocks, memos, kernels, [(j, cand) for j, _, cand, _ in live])
        for entry in live:
            j, search, cand, _ = entry
            memo = memos[j]
            try:
                while cand in memo:
                    cand = search.send(memo[cand].skl_bits)
                entry[2] = cand
            except StopIteration as done:
                entry[3] = done.value
        live = [entry for entry in live if entry[3] is None]

    for j, _, _, (p, v) in searches:
        if v > best[j][1]:
            best[j] = (p, v)
    if log.isEnabledFor(logging.DEBUG):
        counts = ", ".join(
            f"{kind} {sum(k.hits[kind] for k in kernels)}/{sum(k.misses[kind] for k in kernels)}"
            for kind in _KERNEL_CAPS
        )
        log.debug(
            "optimised %d blocks in %d evaluations; kernel memo hits/misses: %s",
            len(blocks), sum(map(len, memos)), counts,
        )
    return [(p, memos[j][p]) for j, (p, _) in enumerate(best)]


def accumulate_links(
    profiles,
    channel: ChannelModel,
    eps: SecurityEpsilons,
    n_starts: int = 3,
    max_evals: int = 400,
    extra_seeds: tuple[SnsParams, ...] = (),
) -> list[tuple[SnsParams | None, SklBreakdown]]:
    """``accumulate_link`` of every profile, with all optimisations run together.

    Each result equals that of optimising its profile alone.  Guaranteed
    floor: a returned SKL is >= the SKL of every point of ``DEFAULT_GRID``
    (the grid is always evaluated).
    """
    blocks = []
    for profile_bins in profiles:
        bins = list(profile_bins)
        if not bins:
            blocks.append(None)
            continue
        arms = _checked_arms([b[0] for b in bins], (len(bins), 2))
        pulses = np.array([float(b[1]) for b in bins])
        if not np.all((pulses >= 0) & np.isfinite(pulses)):
            raise ValueError("pulse counts must be finite and >= 0")
        blocks.append((arms, pulses))
    found = iter(
        _optimize_pooled(
            channel, eps, [b for b in blocks if b is not None], n_starts, max_evals, extra_seeds
        )
    )
    return [(None, SklBreakdown.zero()) if b is None else next(found) for b in blocks]


def accumulate_link(
    profile_bins,
    channel: ChannelModel,
    eps: SecurityEpsilons,
    n_starts: int = 3,
    max_evals: int = 400,
    extra_seeds: tuple[SnsParams, ...] = (),
) -> tuple[SnsParams | None, SklBreakdown]:
    """Pool all sessions of one link into a single finite-key block.

    ``profile_bins`` is a sequence of ((eta_a, eta_b), pulse count) bins.
    An empty profile yields a zero block.
    """
    return accumulate_links([profile_bins], channel, eps, n_starts, max_evals, extra_seeds)[0]
