"""Finite-key secret-key lengths for sending-or-not-sending twin-field QKD.

The protocol model: every repetition-rate slot is a Z window with
probability p_z, otherwise a decoy X window.  In a Z window each party
sends a phase-randomised pulse of intensity mu_z with probability p_send
(their key bit) or nothing.  In an X window each party independently sends
one of the decoy intensities {0, mu1, mu2} with probabilities
{p0, p1, 1 - p0 - p1} and a uniformly random phase.  The measurement node
reports clicks; pairs where both sides sent mu1 with phases inside a slice
of half-width delta (around 0 or pi) estimate the phase-flip error from the
clicks of their error port alone, so the model computes no other port.

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
isolated in ``_chernoff_lower`` / ``_chernoff_upper`` so it can be swapped.
The chain runs on rows of 24 pooled counts (``_ROW``), one per block and
candidate, in ``_Scorer``: one numpy pass scores P rows, with the same bits
as scoring each row alone in Python floats.  Only the per-candidate
transcendental calls (four exps and the four log2 of the two binary
entropies) and the squares mu1 ** 2 and mu2 ** 2 stay in ``math``, one
candidate at a time: numpy's SIMD exp and log need not match libm, and
CPython's ``x ** 2`` calls libm ``pow``, which is not always ``x * x``.
The optimiser scores the rows of all its ``pooled_statistics`` calls of a
round in one pass; ``skl`` scores the one row of an ``ExpectedStatistics``,
made only by ``expected_statistics`` and the oracle.

A link block is a pair of arrays: the arm efficiencies (eta_a, eta_b),
sender to measurement node, of shape (B, 2), and the pulse counts of its
B bins, of shape (B,).  ``symmetric_arms`` is the one place a total
twin-field link efficiency is split, into two arms of sqrt(efficiency).

Below the public entry points a candidate is the tuple of its ``SnsParams``
fields (``expected_statistics`` and ``skl`` convert theirs; the optimiser
makes a ``SnsParams`` only of each block's winner), and the optimiser
evaluates a block on one of two paths (see ``_Evaluator``):

- A block of at most 128 bins is batched with the others of its band,
  bins >> 3, padded to the band's widest block with zero-pulse, zero-arm
  bins, which numpy's pairwise sums make exact.  Its kernels are computed
  on its own arms: the arrays are small, and per-call overhead sets the cost.
- A larger block is evaluated one candidate a call, through the optimiser
  call's arm table (``_ArmTable``), its one memo.  That keeps the block's
  pooled sums of each group of count rows (``_GROUPS``), keyed by the
  fields the group reads: n_pulses once per block, the Z rows by (p_z,
  p_send, mu_z), the X rows by (p_z, p0, p1, mu1, mu2) and the slice rows
  by (p_z, p1, mu1, delta).  Only a group whose key is new is built and
  summed, with its click kernel gathered from the table.  That holds the
  large blocks' distinct arm pairs and ``_TABLE_CAPS`` whole kernels per
  kind, keyed by ``_KERNEL_KEYS``: the Z-window clicks by mu_z, the
  X-window clicks of every decoy pair by (mu1, mu2) and the phase-slice
  error-port Gauss-Legendre sums by (mu1, delta), least recently used out.
  Asymmetric blocks pair many uplink arms with the one ISL arm, so they
  share most of their arms.

Either way each count is the same numpy operations, elementwise on the same
arms, summed as the same contiguous row, so results are bit-identical.

The phase-slice kernel evaluates the 12 negative Gauss-Legendre nodes and
mirrors their terms into the other 12: numpy's leggauss nodes are exactly
antisymmetric, its weights exactly symmetric, and cos is even, so the
24-node sum is bit-identical to evaluating every node.
"""

from __future__ import annotations

import logging
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from itertools import chain
from operator import attrgetter, itemgetter

import numpy as np

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


# A candidate as the tuple of its fields, in field order: the optimiser's
# candidates are such tuples, and two SnsParams are equal when theirs are.
_sns_fields = attrgetter(*(f.name for f in fields(SnsParams)))


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


@dataclass(frozen=True)
class ChannelModel:
    """Detector and channel constants of the ``[channel]`` scenario section, in
    the units its keys name; the defaults are the scenario baseline.  Arm
    efficiencies vary bin by bin, so they travel with their pulse counts.
    """

    detector_efficiency: float = 0.5
    dark_count_prob: float = 1e-9
    optical_error: float = 0.05
    rep_rate_ghz: float = 1.0
    error_correction_factor: float = 1.11

    rep_rate_hz = property(lambda self: self.rep_rate_ghz * 1e9)  # the SI value the models read

    def __post_init__(self):
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError("dark_count_prob must lie in [0, 1)")
        if not 0.0 <= self.optical_error <= 0.5:
            raise ValueError("optical_error must lie in [0, 0.5]")
        if not (0 < self.rep_rate_hz < math.inf and 1.0 <= self.error_correction_factor < math.inf):
            raise ValueError("bad repetition rate or error-correction factor")


def symmetric_arms(efficiency) -> np.ndarray:
    """Equal arms, (..., 2), of twin-field links of total ``efficiency`` (float or array)."""
    eff = np.asarray(efficiency, dtype=float)
    outside = ~((eff >= 0.0) & (eff <= 1.0))
    if outside.any():
        raise ValueError(f"link efficiency must lie in [0, 1], got {eff[outside][0]}")
    arm = np.sqrt(eff)
    return np.stack((arm, arm), axis=-1)


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
    """Expected (one ``pooled_statistics`` row) or sampled counts of one block and candidate.

    ``x_pairs`` / ``x_clicks`` are 3x3 arrays indexed by (side-a intensity,
    side-b intensity) with 0 = vacuum, 1 = mu1, 2 = mu2.  The phase-error
    bound reads only the slice's error port; the last two fields are counted
    by the Monte-Carlo oracle alone and stay unset on expected counts.
    """

    params: SnsParams
    n_pulses: float
    dark_count_prob: float
    error_correction_factor: float
    n_z: float = 0.0
    z_clicks: float = 0.0
    z_errors: float = 0.0
    x_pairs: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    x_clicks: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    slice_pairs: float = 0.0
    slice_error_clicks: float = 0.0
    # counted by the Monte-Carlo oracle only, the tagged clicks with tagged=True
    slice_correct_clicks: float = 0.0
    tagged_untagged_clicks: float | None = None


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x) in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _min3(a, b, c):
    """Python's ``min(a, b, c)`` elementwise: a later value replaces only a larger one."""
    least = np.where(b < a, b, a)
    return np.where(c < least, c, least)


def _min(bound: float, x):
    """Python's ``min(bound, x)`` elementwise, for a constant ``bound`` > 0.

    ``fmin`` gives ``bound`` for NaN, as ``min`` does, and a tie is one float.
    """
    return np.fmin(x, bound)


def _max0(x):
    """Python's ``max(0.0, x)`` elementwise.

    ``fmax`` gives 0 for NaN, as ``max`` does; adding +0.0 turns a -0.0
    into the +0.0 that ``max`` keeps on a tie.
    """
    return np.fmax(x, 0.0) + 0.0


def _chernoff_lower(expected, log_inv_eps: float):
    """Lower bound compatible with failure probability eps; takes log(1/eps) > 0.

    0 where the expected count is <= 0: the difference is then 0 or NaN.
    """
    return _max0(expected - np.sqrt(2.0 * expected * log_inv_eps))


def _chernoff_upper(expected, log_inv_eps: float):
    """Upper bound compatible with failure probability eps; takes log(1/eps).

    The scorer rejects a negative count it would bound before calling this.
    """
    return expected + np.sqrt(2.0 * expected * log_inv_eps) + log_inv_eps


def _entropy(x):
    """``binary_entropy`` of an array whose reached entries lie in [0, 1].

    The two log2 of each entry are libm's, as in ``binary_entropy``: taken
    by ``math.log2``, one entry at a time.  Entries outside (0, 1) take the
    logs of 0.5 instead, which no reached entry reads.
    """
    inside = np.where((0.0 < x) & (x < 1.0), x, 0.5)
    log_x = np.array(list(map(math.log2, inside.ravel().tolist()))).reshape(x.shape)
    log_rest = np.array(list(map(math.log2, (1.0 - inside).ravel().tolist()))).reshape(x.shape)
    return np.where((x == 0.0) | (x == 1.0), 0.0, -x * log_x - (1.0 - x) * log_rest)


def _click(nu, pdc):
    return 1.0 - (1.0 - pdc) * np.exp(-nu)


def _candidate_table(candidates, pdc) -> np.ndarray:
    """(P, 14) constants of P candidates' field tuples, each formed as the scalar code forms it.

    Columns 0-2 are the intensities (0, mu1, mu2), 3-5 their probabilities
    (p2 as ``SnsParams.p2`` forms it).
    """
    rows = []
    for mu_z, mu1, mu2, ps, p_z, p0, p1, delta in candidates:
        rows.append((
            0.0, mu1, mu2, p0, p1, 1.0 - p0 - p1, mu_z, p_z, 1.0 - p_z, delta,
            ps * (1.0 - ps), ps**2, (1.0 - ps) ** 2 * pdc, min(1.0, 2.0 * delta / math.pi),
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


# The 12 negative Gauss-Legendre nodes.  leggauss makes its nodes exactly
# antisymmetric and its weights exactly symmetric, and cos is even, so the
# terms of the positive nodes are those of the negative ones, mirrored.
_GL_HALF = len(_GL_NODES) // 2


def _slice_clicks(ta, tb, mu1, delta, eopt, pdc):
    """Phase-slice kernel: per-bin error-port clicks, Gauss-Legendre over +-delta.

    The (..., B, 12) terms of the negative nodes are built once and taken
    through the operations of ``_click(base * (1 - mod), pdc) * weights`` in
    place.  They and their mirror image fill one (..., B, 24) array, which
    is summed over the 24 nodes as if each had been evaluated.
    """
    colsum = ta + tb
    vis = np.where(colsum > 0, 2.0 * np.sqrt(ta * tb) / np.where(colsum > 0, colsum, 1.0), 0.0)
    base = 0.5 * (mu1 * colsum)[..., None]
    half = (vis * (1.0 - 2.0 * eopt))[..., None] * np.cos(delta * _GL_NODES[:_GL_HALF])[:, None, :]
    np.subtract(1.0, half, out=half)
    np.multiply(base, half, out=half)
    np.negative(half, out=half)
    np.exp(half, out=half)
    np.multiply(1.0 - pdc, half, out=half)
    np.subtract(1.0, half, out=half)
    np.multiply(half, _GL_WEIGHTS[:_GL_HALF] / 2.0, out=half)
    terms = np.empty(half.shape[:-1] + (2 * _GL_HALF,))
    terms[..., :_GL_HALF] = half
    terms[..., _GL_HALF:] = half[..., ::-1]
    return terms.sum(axis=-1)


# Layout of one row of pooled counts: n_pulses, n_z, z_clicks, z_errors, the
# 3x3 x_pairs from _XP and the 3x3 x_clicks from _XC (both row-major), then
# slice_pairs and slice_error_clicks from _SL.
_XP, _XC, _SL, _ROW = 4, 13, 22, 24


class _Terms:
    """Writes the per-bin terms of one call's groups of rows.

    Holds the pulses ``w`` of the bins, of shape (1 or P, B), and the (P, 1)
    constant columns of the P candidates, which are field tuples.  Each
    method fills a (P, rows, B) array with the terms of one group of
    ``_GROUPS``, with a click kernel from ``clicks``: computed on the bins'
    detected arms ``ta``, ``tb`` (shaped as ``w``), or, for a ``memo`` (the
    arm table and a block of it), gathered from the table.
    """

    def __init__(self, channel: ChannelModel, candidates, w, ta=None, tb=None, memo=(None, 0)):
        self.w, self.ta, self.tb = w, ta, tb
        self.table, self.block = memo
        self.first = candidates[0]  # the memo's key; the only candidate of a memo call
        self.pdc, self.eopt = channel.dark_count_prob, channel.optical_error
        const = _candidate_table(candidates, self.pdc)
        self.mus, self.probs = const[:, 0:3], const[:, 3:6]
        (_, self.mu1, _, _, self.p1, _, self.mu_z, self.p_z, self.p_x, self.delta,
         self.ps_single, self.ps_both, self.none_dark, self.f_slice) = const.T[:, :, None]

    def clicks(self, kind, kernel, *rest):
        """Click kernel ``kind`` of the bins: ``kernel(ta, tb, *rest)``."""
        if self.table is None:
            return kernel(self.ta, self.tb, *rest)
        return self.table.gather(self.block, kind, _KERNEL_KEYS[kind](self.first), kernel, rest)

    def pulses(self, out):
        out[:, 0] = self.w

    def z(self, out):
        """n_z, z_clicks and z_errors, from the send/not-send patterns."""
        nz, z_clicks, z_errors = out[:, 0], out[:, 1], out[:, 2]
        np.multiply(self.w, self.p_z, out=nz)
        c_sum, c_ab = self.clicks("z", _z_clicks, self.mu_z, self.pdc)
        singles = self.ps_single * c_sum
        both = self.ps_both * c_ab
        np.add(singles, both, out=z_clicks)
        np.add(z_clicks, self.none_dark, out=z_clicks)
        np.multiply(nz, z_clicks, out=z_clicks)
        np.add(both, self.none_dark, out=z_errors)
        np.add(z_errors, np.multiply(self.eopt, singles, out=singles), out=z_errors)
        np.multiply(nz, z_errors, out=z_errors)

    def x(self, out):
        """x_pairs and x_clicks: all ordered decoy intensity pairs (u, v) on axes 1 and 2."""
        n = len(out)
        x_pairs = out[:, : _XC - _XP].reshape(n, 3, 3, -1)
        x_clicks = out[:, _XC - _XP :].reshape(n, 3, 3, -1)
        nx = self.w * self.p_x
        np.multiply(nx[:, None, None, :], self.probs[:, :, None, None], out=x_pairs)
        np.multiply(x_pairs, self.probs[:, None, :, None], out=x_pairs)
        np.multiply(x_pairs, self.clicks("x", _x_clicks, self.mus, self.pdc), out=x_clicks)

    def phase_slice(self, out):
        """slice_pairs and slice_error_clicks: the phase slice of the (mu1, mu1) pairs."""
        sl_pairs, sl_err = out[:, 0], out[:, 1]
        np.multiply(self.w, self.p_x, out=sl_pairs)
        np.multiply(sl_pairs, self.p1, out=sl_pairs)
        np.multiply(sl_pairs, self.p1, out=sl_pairs)
        np.multiply(sl_pairs, self.f_slice, out=sl_pairs)
        err_in = self.clicks("slice", _slice_clicks, self.mu1, self.delta, self.eopt, self.pdc)
        np.multiply(sl_pairs, err_in, out=sl_err)


# The groups of rows of the _ROW layout: name -> (rows, the key of their
# pooled sums, which reads the fields their counts read from a candidate's
# field tuple, the _Terms method that writes their per-bin terms).
_GROUPS = {
    "n": (slice(0, 1), lambda p: (), _Terms.pulses),
    "z": (slice(1, _XP), itemgetter(4, 3, 0), _Terms.z),  # p_z, p_send, mu_z
    "x": (slice(_XP, _SL), itemgetter(4, 5, 6, 1, 2), _Terms.x),  # p_z, p0, p1, mu1, mu2
    "slice": (slice(_SL, _ROW), itemgetter(4, 6, 1, 7), _Terms.phase_slice),  # p_z, p1, mu1, delta
}

# The key of each kind of click kernel in the arm table, which reads the fields
# the kernel reads from a candidate's field tuple: mu_z; mu1, mu2; mu1, delta.
_KERNEL_KEYS = {"z": itemgetter(0), "x": itemgetter(1, 2), "slice": itemgetter(1, 7)}

# Table-length kernels the arm table keeps per kind, least recently used out.
# On the 12 large blocks of the campaign.seed=4 asymmetric day, caps of 2, 2
# and 4 miss 44 z, 73 x and 114 slice kernels, these 44, 73 and 113, and caps
# of 8, 8 and 16 miss 30, 73 and 98, in no less time: about 1.0 s for the day
# at each (min of 3 runs, 2 vCPUs).
_TABLE_CAPS = {"z": 4, "x": 4, "slice": 8}


class _ArmTable:
    """The one memo of the optimiser's large blocks: their pooled sums and click kernels.

    The blocks' (eta_a, eta_b) pairs are deduplicated by their bits, so
    -0.0 and 0.0 stay apart.  ``ta`` and ``tb``, of shape (1, D), are the
    detected arms of the D distinct pairs, and ``index[k]`` maps block k's
    bins to their entries.  Per kind, a least-recently-used memo of
    ``_TABLE_CAPS`` table-length kernels is keyed by ``_KERNEL_KEYS``.  A
    miss computes the kernel on all D arms in one call, the same elementwise
    operations on the same floats as on a whole block, so each entry has its
    bits.  ``sums[k]`` keeps block k's pooled sums per group of ``_GROUPS``,
    unbounded (a few floats an entry).  ``hits``/``misses`` count kernel
    lookups per kind, ``sum_hits``/``sum_misses`` sum lookups per group.
    """

    def __init__(self, channel: ChannelModel, arm_blocks):
        pairs = np.ascontiguousarray(np.concatenate(arm_blocks) if arm_blocks else np.empty((0, 2)))
        distinct, inverse = np.unique(pairs.view(np.dtype((np.void, 16))), return_inverse=True)
        detected = distinct.view(float).reshape(-1, 2) * channel.detector_efficiency
        self.ta, self.tb = np.ascontiguousarray(detected.T[:, None])
        self.bins, self.size = len(pairs), len(distinct)
        bounds = np.cumsum([len(arms) for arms in arm_blocks[:-1]], dtype=int)
        self.index = np.split(inverse.ravel(), bounds) if arm_blocks else []
        self.caches = {kind: OrderedDict() for kind in _TABLE_CAPS}
        self.hits = dict.fromkeys(_TABLE_CAPS, 0)
        self.misses = dict.fromkeys(_TABLE_CAPS, 0)
        self.sums = [{group: {} for group in _GROUPS} for _ in self.index]
        self.sum_hits = dict.fromkeys(_GROUPS, 0)
        self.sum_misses = dict.fromkeys(_GROUPS, 0)

    def gather(self, block: int, kind, key, kernel, rest):
        """Kernel ``kind`` at ``key``, ``kernel(ta, tb, *rest)``, at the entries of ``block``."""
        cache = self.caches[kind]
        if key in cache:
            self.hits[kind] += 1
            cache.move_to_end(key)
        else:
            self.misses[kind] += 1
            value = kernel(self.ta, self.tb, *rest)
            cache[key] = value if isinstance(value, tuple) else (value,)
            if len(cache) > _TABLE_CAPS[kind]:
                cache.popitem(last=False)
        parts = [whole.take(self.index[block], axis=-1) for whole in cache[key]]
        return tuple(parts) if len(parts) > 1 else parts[0]

    def pooled(self, terms: _Terms) -> np.ndarray:
        """The (1, ``_ROW``) pooled counts of the one candidate of ``terms``, on its block.

        Only a group whose key is new has its terms written, into a (1,
        rows, B) array of its own, and summed.  numpy sums each contiguous
        row of B floats the same way there as inside a (P, _ROW, B) array.
        """
        out = np.empty((1, _ROW))
        memos = self.sums[terms.block]
        for group, (rows, key_of, write) in _GROUPS.items():
            key = key_of(terms.first)
            sums = memos[group].get(key)
            if sums is None:
                self.sum_misses[group] += 1
                part = np.empty((1, rows.stop - rows.start, terms.w.shape[-1]))
                write(terms, part)
                sums = memos[group][key] = part.sum(axis=-1)
            else:
                self.sum_hits[group] += 1
            out[:, rows] = sums
        return out


def _row(stats: ExpectedStatistics) -> list:
    """The counts of ``stats`` as one row in the ``_ROW`` layout."""
    return [
        stats.n_pulses, stats.n_z, stats.z_clicks, stats.z_errors,
        *stats.x_pairs.ravel().tolist(), *stats.x_clicks.ravel().tolist(),
        stats.slice_pairs, stats.slice_error_clicks,
    ]


def pooled_statistics(channel: ChannelModel, candidates, arms, pulses, memo=None) -> np.ndarray:
    """The (P, ``_ROW``) expected counts of a sequence of P candidates, pooled over bins.

    A candidate is the tuple of its ``SnsParams`` fields.  The pulse counts
    are shared, of shape (B,), or one row per candidate, of shape (P, B);
    ``arms`` has their shape plus a trailing axis of the two arm
    efficiencies, not range-checked here: the public entry points check
    each block once.  All per-bin terms go into one (P, _ROW, B)
    array, summed over its last, contiguous axis, so a candidate's counts
    do not depend on the others in its batch; bins of zero pulses and zero
    arms add exactly +0.0 to every count (see ``_Evaluator``).  ``memo``,
    the optimiser's ``_ArmTable`` and a block of it, serves one candidate
    on that block's shared pulse counts.  It recomputes only the groups of
    rows whose fields it has not seen, on click kernels gathered from the
    table, and ``arms`` is not read.
    """
    w = np.atleast_1d(np.asarray(pulses, dtype=float))
    if memo is not None:
        if len(candidates) != 1 or w.ndim != 1:
            raise ValueError("a memo serves one candidate on shared pulse counts")
        return memo[0].pooled(_Terms(channel, candidates, w[None], memo=memo))
    arms = np.asarray(arms, dtype=float)
    if arms.shape != w.shape + (2,):
        raise ValueError("arm efficiencies and pulse counts must align")
    ta = arms[..., 0] * channel.detector_efficiency
    tb = arms[..., 1] * channel.detector_efficiency
    if w.ndim == 1:
        w, ta, tb = w[None], ta[None], tb[None]
    elif w.ndim != 2 or w.shape[0] != len(candidates):
        raise ValueError("per-candidate bins need one row per candidate")
    terms = _Terms(channel, candidates, w, ta, tb)
    out = np.empty((len(candidates), _ROW, w.shape[-1]))
    for rows, _, write in _GROUPS.values():
        write(terms, out[:, rows])
    return out.sum(axis=-1)


def expected_statistics(
    channel: ChannelModel, params: SnsParams, arms, n_pulses: float
) -> ExpectedStatistics:
    """Expected counts of a single block with arm efficiencies ``arms``."""
    arms = _checked_arms(arms, (2,))
    if not (n_pulses >= 1 and math.isfinite(n_pulses)):
        raise ValueError("n_pulses must be finite and >= 1")
    (sums,) = pooled_statistics(channel, [_sns_fields(params)], arms[None], [n_pulses])
    row = sums.tolist()  # the fields in the _ROW layout, in their order
    return ExpectedStatistics(
        params, row[0], channel.dark_count_prob, channel.error_correction_factor, *row[1:_XP],
        sums[_XP:_XC].reshape(3, 3), sums[_XC:_SL].reshape(3, 3), *row[_SL:],
    )


_MC_CHUNK = 1_000_000  # pulses that monte_carlo_statistics draws at a time


def monte_carlo_statistics(
    channel: ChannelModel,
    params: SnsParams,
    arms,
    n_samples: int,
    seed: int = 0,
    tagged: bool = False,
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
        error_correction_factor=channel.error_correction_factor,
    )
    mus = np.array([0.0, p.mu1, p.mu2])
    probs = np.array([p.p0, p.p1, p.p2])
    tagged_clicks = 0.0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
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


def correction_term(eps: SecurityEpsilons) -> float:
    """Epsilon-dependent subtraction of the key-length formula, in bits (>= 0).

    Evaluates 2 log2[(2/eps_cor) (2/(sqrt2 eps_PA eps_hat))], as a sum of
    log2 terms where the product overflows or its denominator underflows.
    """
    denominator = math.sqrt(2.0) * eps.eps_pa * eps.eps_hat
    if denominator >= sys.float_info.min:
        product = (2.0 / eps.eps_cor) * (2.0 / denominator)
        if product < math.inf:
            return 2.0 * math.log2(product)
    return 2.0 * (1.5 - math.log2(eps.eps_cor) - math.log2(eps.eps_pa) - math.log2(eps.eps_hat))


def _log_inverse(eps: float) -> float:
    """log(1/eps), taken as -log(eps) where 1/eps overflows."""
    inverse = 1.0 / eps
    return math.log(inverse) if inverse < math.inf else -math.log(eps)


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


# The 3x3 x_pairs / x_clicks entries of each arm's vacuum, mu1 and mu2
# ensembles, one row an arm: entries 0, s and 2s, with stride s = 3 for arm
# a and 1 for arm b.
_ARMS = np.array([[0, 3, 6], [0, 1, 2]])

# The errors of the chain, in the order it meets them on a row: each arm's
# decoy pairs and clicks (arm a, then arm b), the slice's error clicks under
# _chernoff_upper, and the domain of binary_entropy(qber).
_CHAIN_ERRORS = (
    "decoy estimation needs vacuum and both decoy ensembles",
    "non-physical statistics: negative click counts",
    "decoy estimation needs vacuum and both decoy ensembles",
    "non-physical statistics: negative click counts",
    "expected count must be >= 0",
    "binary_entropy argument outside [0, 1]: {}",
)


class _Scorer:
    """The finite-key chain, run on rows of pooled counts (``_ROW`` layout).

    One call scores P candidates (each the tuple of its ``SnsParams``
    fields) and their (P, ``_ROW``) rows in one numpy pass; log(1/eps) of
    both bound families and the epsilon correction are taken once per
    scorer.  The pass gives the bits of the chain run on one row of Python
    floats at a time.  ``+ - * /`` and ``sqrt`` are correctly rounded in
    numpy as in Python, so they run in numpy in the same order, and every
    branch is an ``np.where`` or one of ``_min``, ``_max0`` and
    ``_min3``, which are Python's ``min`` and ``max`` for NaN and signed
    zeros too.  The transcendental calls stay in ``math``, one candidate at
    a time: ``exp(mu1)``, ``exp(mu2)``, ``exp(-mu_z)``, ``exp(-2 mu1)`` and
    the four log2 of the two binary entropies, since numpy's SIMD exp and
    log need not match libm.  So do the squares ``mu1 ** 2`` and
    ``mu2 ** 2``: CPython's ``x ** 2`` calls libm ``pow``, which is not
    always ``x * x`` (at mu2 = 0.18750000000000003 they differ by 1 ulp).
    A row raises the ``ValueError`` that the one-row chain would raise, and
    only where that chain reaches the check.
    """

    def __init__(self, eps: SecurityEpsilons, dark_count_prob: float,
                 error_correction_factor: float, asymptotic: bool = False):
        self.ln_n1 = _log_inverse(eps.eps_n1)
        self.ln_bar = _log_inverse(eps.eps_bar)
        self.correction = correction_term(eps)
        self.pdc = dark_count_prob
        self.f_ec = error_correction_factor
        self.asymptotic = asymptotic

    @staticmethod
    def _constants(candidates):
        """(10, P): mu1, mu2, their squares and exps, p_send, mu_z, exp(-mu_z), exp(-2 mu1)."""
        columns = [
            (mu1, mu2, mu1 ** 2, mu2 ** 2, math.exp(mu1), math.exp(mu2),
             p_send, mu_z, math.exp(-mu_z), math.exp(-2.0 * mu1))
            for mu_z, mu1, mu2, p_send, _, _, _, _ in candidates
        ]
        flat = np.fromiter(chain.from_iterable(columns), float, 10 * len(columns))
        return flat.reshape(-1, 10).T

    def _check(self, pairs, clicks, live, rows, qber):
        """Raise the first of ``_CHAIN_ERRORS`` on the ``live`` rows, rows in order.

        ``pairs`` and ``clicks`` are the (P, 2, 3) decoy ensembles of both arms.
        """
        least_pairs = _min3(pairs[..., 0], pairs[..., 1], pairs[..., 2])
        least_clicks = _min3(clicks[..., 0], clicks[..., 1], clicks[..., 2])
        bounded = ~(rows[:, _SL] <= 0) & (not self.asymptotic)
        checks = [least_pairs[:, 0] <= 0, least_clicks[:, 0] < 0,
                  least_pairs[:, 1] <= 0, least_clicks[:, 1] < 0,
                  bounded & (rows[:, _SL + 1] < 0.0), ~((0.0 <= qber) & (qber <= 1.0))]
        bad = np.stack(checks, axis=1) & live[:, None]
        if bad.any():
            row = int(bad.any(axis=1).argmax())
            raise ValueError(_CHAIN_ERRORS[int(bad[row].argmax())].format(float(qber[row])))

    def _yields(self, const, pairs, clicks):
        """Two-decoy lower bounds on the single-photon yields of both arms, (P, 2)."""
        if self.asymptotic:
            low = high = clicks / pairs
        else:
            low = _chernoff_lower(clicks, self.ln_n1) / pairs
            high = _min(1.0, _chernoff_upper(clicks, self.ln_n1) / pairs)
        mu1, mu2, mu1_sq, mu2_sq, exp_mu1, exp_mu2 = const[:6, :, None]
        # ensembles 0, 1, 2: vacuum, mu1 and mu2
        num = (mu2_sq * (low[..., 1] * exp_mu1 - high[..., 0])
               - mu1_sq * (high[..., 2] * exp_mu2 - low[..., 0]))
        y1 = num / (mu1 * mu2 * (mu2 - mu1))
        return _min(1.0, _max0(y1))

    def _untagged(self, const, rows, pairs, clicks):
        y1 = self._yields(const, pairs, clicks)
        y1a, y1b = y1[:, 0], y1[:, 1]
        p_send, mu_z, exp_neg_mu_z = const[6:9]
        # single-send single-photon emission rate in Z windows per side
        base = rows[:, 1] * p_send * (1.0 - p_send) * mu_z * exp_neg_mu_z
        n1 = base * (y1a + y1b)
        if not self.asymptotic:
            n1 = _chernoff_lower(n1, self.ln_n1)
        return _max0(n1), y1a, y1b

    def _phase_error(self, const, rows, y1_mean):
        """Upper bound on the phase-flip error of untagged bits from slice counts."""
        pairs, errors = rows[:, _SL], rows[:, _SL + 1]
        mu1, exp_neg_2mu1 = const[0], const[9]
        vac_err = pairs * exp_neg_2mu1 * self.pdc
        if self.asymptotic:
            num = errors - vac_err
        else:
            num = _chernoff_upper(errors, self.ln_bar) - _chernoff_lower(vac_err, self.ln_bar)
        singles = pairs * 2.0 * mu1 * exp_neg_2mu1 * y1_mean
        e1 = _min(0.5, _max0(num / singles))
        return np.where((pairs <= 0) | (singles <= 0.0), 0.5, e1)

    def __call__(self, candidates, rows) -> list[tuple]:
        """The ledger of each candidate's block, as a tuple of ``SklBreakdown``'s fields.

        ``rows`` holds the (P, ``_ROW``) pooled counts of the P candidates.
        """
        const = self._constants(candidates)
        pairs, clicks = rows[:, _XP + _ARMS], rows[:, _XC + _ARMS]
        with np.errstate(all="ignore"):
            n_raw = rows[:, 2]
            live = ~(n_raw <= 0.0)
            qber = _min(1.0, rows[:, 3] / n_raw)
            self._check(pairs, clicks, live, rows, qber)
            n1, y1a, y1b = self._untagged(const, rows, pairs, clicks)
            e1 = self._phase_error(const, rows, 0.5 * (y1a + y1b))
            h_qber, h_e1 = _entropy(np.stack((qber, e1)))
            lam_ec = self.f_ec * n_raw * h_qber
            bits = n1 * (1.0 - h_e1) - lam_ec - self.correction
            ledger = np.stack((rows[:, 0], n_raw, qber, n1, e1, lam_ec, _max0(bits)), axis=1)
        # a block without raw clicks: the zero ledger, with its pulse count
        ledger[~live, 1:] = (0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
        return list(map(tuple, ledger.tolist()))


def skl(
    stats: ExpectedStatistics,
    eps: SecurityEpsilons,
    asymptotic: bool = False,
) -> SklBreakdown:
    """Secret-key length of a block from its (expected or sampled) counts."""
    scorer = _Scorer(eps, stats.dark_count_prob, stats.error_correction_factor, asymptotic)
    (ledger,) = scorer([_sns_fields(stats.params)], np.array([_row(stats)]))
    return SklBreakdown(*ledger)


DEFAULT_PARAMS = SnsParams()
OPTIMIZER_STARTS, OPTIMIZER_EVALS = 3, 400  # default budget: search starts, evaluations a start

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

# The grid as the optimiser's candidates, field tuples.
_GRID = tuple(map(_sns_fields, DEFAULT_GRID))


def _coordinate_search(start: tuple, max_evals: int):
    """Deterministic multiplicative coordinate descent inside the box.

    A generator on field tuples: it yields each candidate it wants
    evaluated, is sent that candidate's objective value, and returns (best
    candidate, best value).  Its path depends only on the values it is
    sent.  It steps a list of the coordinates of ``_BOUNDS``, in order, with
    ratio1 = mu1 / mu2 of the best point; every candidate it yields is a
    valid ``SnsParams``.
    """
    best_p = start
    best_v = yield start
    evals = 1
    step = 1.6
    while evals < max_evals and step > 1.005:
        improved = False
        mu_z, mu1, mu2, *rest = best_p
        vec = [mu_z, mu2, mu1 / mu2, *rest]
        for i, (lo, hi) in enumerate(_BOUNDS.values()):
            for factor in (step, 1.0 / step):
                if evals >= max_evals:
                    break
                cand = vec.copy()
                cand[i] = min(hi, max(lo, cand[i] * factor))
                mu_z, mu2, ratio1, p_send, p_z, p0, p1, delta = cand
                if p0 + p1 >= 0.98:
                    continue
                params = (mu_z, ratio1 * mu2, mu2, p_send, p_z, p0, p1, delta)
                val = yield params
                evals += 1
                if val > best_v:
                    best_v, best_p = val, params
                    vec = cand
                    vec[2] = params[1] / mu2
                    improved = True
        if not improved:
            step = 1.0 + (step - 1.0) * 0.5
    return best_p, best_v


# Largest candidates x bins product of one batched evaluation of a band.
# Blocks above _PAIRWISE_BLOCK bins are not batched: a batch only adds
# memory traffic (and peak memory) to their compute-bound arrays, and a memo
# saves the kernels a coordinate search does not change.
_BATCH_CELLS = 4096

# The longest row that numpy's pairwise summation adds without splitting it
# (PW_BLOCKSIZE in numpy's loops_utils.h.src), and so the largest block
# that is batched.  The band rule of _Evaluator rests on that summation's
# order, which is numpy's internal choice; checked on numpy 2.4.6, and
# guarded by test_zero_padding_inside_the_band_keeps_counts_bit_identical.
_PAIRWISE_BLOCK = 128


def _padded(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(arms, pulses) of the blocks, one row each, zero-padded to the widest."""
    width = max(len(pulses) for _, pulses in blocks)
    arms = np.zeros((len(blocks), width, 2))
    pulses = np.zeros((len(blocks), width))
    for row, (a, w) in enumerate(blocks):
        arms[row, : len(w)] = a
        pulses[row, : len(w)] = w
    return arms, pulses


class _Evaluator:
    """The optimiser's blocks and the ledger of every (block, candidate) it has scored.

    ``memos[j]`` maps each candidate evaluated on block j, a field tuple, to
    its ledger, a tuple of ``SklBreakdown``'s fields.  ``calls`` counts the
    ``pooled_statistics`` calls made and ``passes`` the scoring passes.

    A block of at most ``_PAIRWISE_BLOCK`` bins is batched with the others
    of its band, bins >> 3.  Each band's blocks are stacked once, padded to
    the widest block of the band with bins of zero pulses and zero arms, and
    a batch of at most ``_BATCH_CELLS`` candidates x bins gathers its rows
    from that stack.  Every count stays bit-identical, because numpy sums a
    contiguous row of n <= 128 floats in one of two ways.  Below 8 elements
    it adds them in order.  Otherwise eight accumulators take the elements
    before n - n % 8, by position mod 8, and the rest are added in order.
    A zero-pulse bin adds exactly +0.0 to every sum (its kernels are finite:
    clicks = P_dc, visibility 0), so zeros that keep n inside its band
    [8k, 8k + 7] change no partial sum.  A larger block is evaluated one
    candidate a call, as block ``slot[j]`` of ``table``, one ``_ArmTable``
    built here with the channel's detector efficiency: the only memo of
    pooled sums and click kernels.
    """

    def __init__(self, channel: ChannelModel, eps: SecurityEpsilons, blocks):
        self.channel = channel
        self.scorer = _Scorer(eps, channel.dark_count_prob, channel.error_correction_factor)
        self.blocks = blocks
        self.memos = [{} for _ in blocks]
        self.calls = self.passes = 0
        self.band = []  # per block, its band, or None for a block evaluated alone
        self.slot = []  # per block, its row in its band's stack, or its block of the table
        members: dict = {}
        for j, (_, pulses) in enumerate(blocks):
            band = len(pulses) >> 3 if len(pulses) <= _PAIRWISE_BLOCK else None
            self.band.append(band)
            self.slot.append(len(members.setdefault(band, [])))
            members[band].append(j)
        single = members.pop(None, [])
        # per band: its blocks' stacked (arms, pulses)
        self.stacks = {band: _padded([blocks[j] for j in js]) for band, js in members.items()}
        self.table = _ArmTable(channel, [blocks[j][0] for j in single])

    def evaluate(self, requests) -> None:
        """Score every (j, candidate) request not yet in ``memos[j]``, in one scoring pass.

        Repeated requests are evaluated once.  Each batch of a band, and
        each candidate of a larger block, is one ``pooled_statistics`` call;
        the rows of all of them are then scored together.
        """
        pending: dict = {}
        for j, params in requests:
            if params not in self.memos[j]:
                pending.setdefault(self.band[j], {})[(j, params)] = None
        todo, rows = [], []
        for band, group in pending.items():
            group = list(group)
            todo.extend(group)
            if band is None:  # one candidate a call, through the arm table
                for j, params in group:
                    memo = (self.table, self.slot[j])
                    rows.append(pooled_statistics(self.channel, [params], *self.blocks[j], memo))
                self.calls += len(group)
                continue
            arms, pulses = self.stacks[band]
            size = _BATCH_CELLS // pulses.shape[1]
            for lo in range(0, len(group), size):
                chunk = group[lo : lo + size]
                at = [self.slot[j] for j, _ in chunk]
                candidates = [p for _, p in chunk]
                rows.append(pooled_statistics(self.channel, candidates, arms[at], pulses[at]))
                self.calls += 1
        if todo:
            ledgers = self.scorer([p for _, p in todo], np.concatenate(rows))
            self.passes += 1
            for (j, params), ledger in zip(todo, ledgers):
                self.memos[j][params] = ledger


def _optimize_pooled(channel, eps, blocks, n_starts, max_evals):
    """Optimise the SNS parameters of every (arms, pulses) block.

    Each block is scored on all of ``DEFAULT_GRID``, then refined by
    coordinate searches from the first ``n_starts`` (at least one) of its
    best grid point, ``DEFAULT_PARAMS`` and its second-best grid point.  All
    searches of all blocks run in lockstep: every round evaluates the
    pending candidate of each live search in one ``_Evaluator.evaluate``
    call, and a search advances without one through points its block has
    already evaluated (a revisit still counts toward ``max_evals``).
    Candidates are field tuples; returns one (SnsParams, SklBreakdown) per
    block, the only ``SnsParams`` made here.
    """
    evaluator = _Evaluator(channel, eps, blocks)
    memos = evaluator.memos
    evaluator.evaluate([(j, p) for j in range(len(blocks)) for p in _GRID])
    best = []  # per block: (candidate, value), the grid's best to start with
    searches = []  # [block, search, pending candidate, result], seed order within a block
    for j, memo in enumerate(memos):
        # a ledger's last field is skl_bits
        scored = [(memo[p][-1], i, p) for i, p in enumerate(_GRID)]
        scored.sort(key=lambda t: (-t[0], t[1]))
        best.append((scored[0][2], scored[0][0]))
        seeds = [scored[0][2], _sns_fields(DEFAULT_PARAMS), scored[1][2]]
        for seed in seeds[: max(n_starts, 1)]:
            search = _coordinate_search(seed, max_evals)
            searches.append([j, search, next(search), None])

    live = searches
    # a step is a value sent to a search; a revisit, a step whose candidate
    # its block had already evaluated when the search yielded it
    on_grid, rounds, steps = sum(map(len, memos)), 0, 0
    while live:
        evaluator.evaluate([(j, cand) for j, _, cand, _ in live])
        rounds += 1
        for entry in live:
            j, search, cand, _ = entry
            memo = memos[j]
            try:
                ledger = memo.get(cand)
                while ledger is not None:
                    steps += 1
                    cand = search.send(ledger[-1])
                    ledger = memo.get(cand)
                entry[2] = cand
            except StopIteration as done:
                entry[3] = done.value
        live = [entry for entry in live if entry[3] is None]

    for j, _, _, (p, v) in searches:
        if v > best[j][1]:
            best[j] = (p, v)
    if log.isEnabledFor(logging.DEBUG):
        table = evaluator.table

        def counts(hits, misses):
            return ", ".join(f"{name} {hits[name]}/{misses[name]}" for name in hits)

        evaluations = sum(map(len, memos))
        log.debug(
            "optimised %d blocks in %d rounds, %d search steps (%d revisits) and %d evaluations "
            "over %d batched calls and %d scoring passes; kernel memo hits/misses: %s; sum "
            "memo hits/misses: %s; arm table: %d distinct arms of %d bins, kernel entries "
            "computed: %s",
            len(blocks), rounds, steps, steps - (evaluations - on_grid), evaluations,
            evaluator.calls, evaluator.passes, counts(table.hits, table.misses),
            counts(table.sum_hits, table.sum_misses), table.size, table.bins,
            ", ".join(f"{kind} {n * table.size}" for kind, n in table.misses.items()),
        )
    return [(SnsParams(*p), SklBreakdown(*memos[j][p])) for j, (p, _) in enumerate(best)]


def accumulate_links(
    blocks,
    channel: ChannelModel,
    eps: SecurityEpsilons,
    n_starts: int = OPTIMIZER_STARTS,
    max_evals: int = OPTIMIZER_EVALS,
) -> list[tuple[SnsParams | None, SklBreakdown]]:
    """Optimise every link block, an (arms (B, 2), pulses (B,)) pair, all together.

    Each block is checked once, and a block of no bins yields a zero
    result.  Each result equals that of optimising its block alone.
    Guaranteed floor: a returned SKL is >= the SKL of every point of
    ``DEFAULT_GRID`` (the grid is always evaluated).
    """
    checked = []
    for arms, pulses in blocks:
        pulses = np.asarray(pulses, dtype=float)
        arms = _checked_arms(arms, pulses.shape + (2,))
        if pulses.ndim != 1 or not np.all((pulses >= 0) & np.isfinite(pulses)):
            raise ValueError("pulse counts must be one row of finite counts >= 0")
        checked.append((arms, pulses) if len(pulses) else None)
    found = iter(_optimize_pooled(
        channel, eps, [b for b in checked if b is not None], n_starts, max_evals
    ))
    return [(None, SklBreakdown.zero()) if b is None else next(found) for b in checked]


def accumulate_link(
    profile_bins,
    channel: ChannelModel,
    eps: SecurityEpsilons,
    n_starts: int = OPTIMIZER_STARTS,
    max_evals: int = OPTIMIZER_EVALS,
) -> tuple[SnsParams | None, SklBreakdown]:
    """Pool all sessions of one link into a single finite-key block.

    ``profile_bins`` is a sequence of ((eta_a, eta_b), pulse count) bins,
    made here into a block.  An empty profile yields a zero block.
    """
    bins = list(profile_bins)
    arms = [arms for arms, _ in bins] if bins else np.empty((0, 2))
    return accumulate_links([(arms, [w for _, w in bins])], channel, eps, n_starts, max_evals)[0]
