"""Key-rate tests: click model vs Monte-Carlo oracle, decoy bounds, SKL."""

import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringqkd import keyrate
from ringqkd.keyrate import (
    DEFAULT_GRID,
    DEFAULT_PARAMS,
    ChannelModel,
    SecurityEpsilons,
    SklBreakdown,
    SnsParams,
    accumulate_link,
    accumulate_links,
    binary_entropy,
    correction_term,
    expected_statistics,
    monte_carlo_statistics,
    pooled_statistics,
    skl,
    symmetric_arms,
)
from ringqkd.keyrate import (
    _BATCH_CELLS,
    _BOUNDS,
    _PAIRWISE_BLOCK,
    _TABLE_CAPS,
    _ArmTable,
    _Evaluator,
    _Scorer,
    _click,
    _coordinate_search,
    _slice_clicks,
)

EPS = SecurityEpsilons()


def make_channel(loss_db, **kw):
    """Channel constants and the equal arms of a link of total loss ``loss_db``."""
    return ChannelModel(**kw), symmetric_arms(10 ** (-loss_db / 10.0))


# -------------------------------------------------------------- binary entropy


@pytest.mark.parametrize("x,want", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
def test_binary_entropy_edges(x, want):
    assert binary_entropy(x) == want


def test_binary_entropy_reference():
    # frozen from an independent high-precision (mpmath) evaluation
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# ------------------------------------------------------------------ validation


def test_sns_params_validation():
    with pytest.raises(ValueError):
        SnsParams(mu1=0.3, mu2=0.2)
    with pytest.raises(ValueError):
        SnsParams(p_send=0.0)
    with pytest.raises(ValueError):
        SnsParams(p0=0.6, p1=0.4)
    with pytest.raises(ValueError):
        SnsParams(delta=3.2)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            SnsParams(mu_z=bad)
    for mu1, mu2 in ((math.nan, 0.25), (0.02, math.nan), (0.02, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            SnsParams(mu1=mu1, mu2=mu2)


def test_channel_validation():
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            symmetric_arms(bad)
    ch = ChannelModel()
    # an arm outside [0, 1], a half-set or NaN arm, and a lone total efficiency
    for bad in ((1.5, 1e-3), (1e-3, -1e-3), (1e-3, None), (1e-3, math.nan), (1e-3,), 1e-3):
        with pytest.raises(ValueError):
            expected_statistics(ch, SnsParams(), bad, 1e6)
        with pytest.raises(ValueError):
            monte_carlo_statistics(ch, SnsParams(), bad, 100)
        with pytest.raises(ValueError):
            accumulate_link([(bad, 1e6)], ch, EPS, max_evals=1)
        with pytest.raises(ValueError):
            accumulate_links([([bad], [1e6])], ch, EPS, max_evals=1)
    # one bin of total efficiency among arm pairs
    with pytest.raises(ValueError):
        accumulate_link([((1e-3, 1e-3), 1e6), (1e-3, 1e6)], ch, EPS, max_evals=1)
    with pytest.raises(ValueError):
        accumulate_links([([(1e-3, 1e-3), 1e-3], [1e6, 1e6])], ch, EPS, max_evals=1)
    # arms that do not align with the pulse counts, and pulses not one row
    for arms, pulses in ((np.full((2, 2), 1e-3), [1e6]), (np.full((1, 2), 1e-3), [[1e6]]),
                         (np.full(2, 1e-3), 1e6), (np.full((2, 1), 1e-3), [1e6, 1e6])):
        with pytest.raises(ValueError):
            accumulate_links([(arms, pulses)], ch, EPS, max_evals=1)
    with pytest.raises(ValueError):
        ChannelModel(dark_count_prob=1.0)


def test_pulse_counts_validation():
    ch = ChannelModel()
    arms = (1e-3, 1e-3)
    # an infinite bin would give infinite pulses and a NaN lambda_ec
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError):
            accumulate_link([(arms, 1e9), (arms, bad)], ch, EPS, max_evals=1)
        with pytest.raises(ValueError):
            accumulate_links([([arms], [1e9]), ([arms, arms], [1e9, bad])], ch, EPS, max_evals=1)
    for bad in (math.nan, 0.5, math.inf):
        with pytest.raises(ValueError):
            expected_statistics(ch, SnsParams(), arms, bad)


# ------------------------------------------------------------ expected counts


def test_zero_efficiency_zero_dark_gives_zero_counts():
    ch = ChannelModel(dark_count_prob=0.0)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e6)
    assert stats.z_clicks == 0.0
    assert np.all(stats.x_clicks == 0.0)
    assert stats.slice_error_clicks == 0.0


def test_vacuum_click_probability_is_dark_rate():
    ch = ChannelModel(dark_count_prob=1e-6)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e9)
    vac = stats.x_clicks[0, 0] / stats.x_pairs[0, 0]
    assert vac == pytest.approx(1e-6, rel=1e-9)


def _assert_counts_close(exp, mc, n_mc, what):
    # Poisson-ish 3-sigma comparison on rates
    rate_exp = exp[0] / exp[1]
    rate_mc = mc[0] / mc[1]
    sigma = math.sqrt(max(rate_exp * (1 - rate_exp) / max(mc[1], 1.0), 1e-30))
    assert abs(rate_exp - rate_mc) <= 3.2 * sigma + 1e-12, what


@pytest.mark.parametrize("loss_db", [
    30.0, 50.0, 70.0,
    # unequal arms: (arm a, arm b) losses in dB
    pytest.param((25.0, 40.0), id="25-40"), pytest.param((40.0, 25.0), id="40-25"),
])
def test_expected_statistics_match_monte_carlo(loss_db):
    if isinstance(loss_db, tuple):
        ch, arms = ChannelModel(), tuple(10 ** (-db / 10.0) for db in loss_db)
    else:
        ch, arms = make_channel(loss_db)
    params = SnsParams(mu_z=0.4, mu1=0.03, mu2=0.3, p_send=0.1, p_z=0.7, p0=0.4, p1=0.35, delta=0.8)
    n = 2_000_000
    exp = expected_statistics(ch, params, arms, n)
    mc = monte_carlo_statistics(ch, params, arms, n, seed=int(np.sum(loss_db)))
    _assert_counts_close((exp.z_clicks, exp.n_z), (mc.z_clicks, mc.n_z), n, "z clicks")
    _assert_counts_close((exp.z_errors, exp.n_z), (mc.z_errors, mc.n_z), n, "z errors")
    for u, v in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        _assert_counts_close(
            (exp.x_clicks[u, v], exp.x_pairs[u, v]),
            (mc.x_clicks[u, v], max(mc.x_pairs[u, v], 1.0)),
            n,
            f"x pair {(u, v)}",
        )
    _assert_counts_close(
        (exp.slice_error_clicks, exp.slice_pairs),
        (mc.slice_error_clicks, max(mc.slice_pairs, 1.0)),
        n,
        "slice errors",
    )


def test_pooled_statistics_additive():
    ch, _ = make_channel(40.0)
    params = astuple(SnsParams())
    arms_a, arms_b = symmetric_arms(1e-4), symmetric_arms(1e-5)
    (one,) = pooled_statistics(ch, [params], np.array([arms_a, arms_b]), np.array([1e8, 2e8]))
    (a,) = pooled_statistics(ch, [params], np.array([arms_a]), np.array([1e8]))
    (b,) = pooled_statistics(ch, [params], np.array([arms_b]), np.array([2e8]))
    # every count of the row, z_clicks (2) and slice_error_clicks (23) among them
    assert one == pytest.approx(a + b, rel=1e-12)


# ------------------------------------------------------------------ estimation


def test_untagged_zero_when_no_detections():
    ch = ChannelModel(dark_count_prob=0.0)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e6)
    assert skl(stats, EPS).n1_lower == 0.0


def test_asymptotic_bound_dominates_finite():
    ch, arms = make_channel(40.0)
    stats = expected_statistics(ch, SnsParams(), arms, 1e10)
    n1_fin = skl(stats, EPS).n1_lower
    n1_asy = skl(stats, EPS, asymptotic=True).n1_lower
    assert n1_asy >= n1_fin


def test_untagged_brackets_tagged_monte_carlo():
    # small instance: the analytic bound must sit within [0.5x, 1.0x] of the
    # photon-number-tagged truth
    ch, arms = make_channel(30.0)
    params = SnsParams(mu_z=0.4, mu1=0.03, mu2=0.3, p_send=0.1, p_z=0.7, p0=0.4, p1=0.35, delta=0.8)
    n = 1_000_000
    mc = monte_carlo_statistics(ch, params, arms, n, seed=11, tagged=True)
    n1 = skl(mc, EPS, asymptotic=True).n1_lower
    truth = mc.tagged_untagged_clicks
    assert truth > 0
    assert 0.5 * truth <= n1 <= 1.02 * truth


def test_decoy_needs_all_ensembles():
    ch, arms = make_channel(30.0)
    stats = expected_statistics(ch, SnsParams(), arms, 1e8)
    stats.x_pairs[0, 0] = 0.0
    with pytest.raises(ValueError):
        skl(stats, EPS)


# ------------------------------------------------------------------------- SKL


def test_skl_zero_cases():
    # no untagged bits -> zero key
    ch = ChannelModel(dark_count_prob=0.0)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e6)
    out = skl(stats, EPS)
    assert out.skl_bits == 0.0
    assert out.n_raw == 0.0


def product_correction_term(e):
    """The correction term as the log2 of one product, the form it keeps wherever that holds."""
    return 2.0 * math.log2((2.0 / e.eps_cor) * (2.0 / (math.sqrt(2.0) * e.eps_pa * e.eps_hat)))


def test_correction_term_closed_form():
    want = product_correction_term(EPS)
    assert correction_term(EPS) == want
    assert want == pytest.approx(202.316, abs=0.01)


# failure probabilities down to the smallest subnormal float
ANY_EPS = st.floats(min_value=5e-324, max_value=0.5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[ANY_EPS] * 5))
@example((1e-10,) * 5)
@example((1e-10, 1e-200, 1e-200, 1e-10, 1e-10))
@example((1e-300, 1e-10, 1e-10, 1e-10, 1e-10))
@example((1e-10, 1e-10, 1e-10, 5e-324, 5e-324))
def test_epsilon_terms_keep_the_bits_of_their_product_forms(values):
    # log(1 / eps) and the correction's product give the bits they always
    # gave wherever they are finite and divide by a normal float; elsewhere
    # the scorer takes the same numbers as sums of logs
    eps_cor, eps_pa, eps_hat, eps_bar, eps_n1 = values
    eps = SecurityEpsilons(*values)
    scorer = _Scorer(eps, 1e-9, 1.11)
    for got, e in ((scorer.ln_bar, eps_bar), (scorer.ln_n1, eps_n1)):
        if e >= sys.float_info.min:
            assert got == math.log(1.0 / e)
        assert got == pytest.approx(-math.log(e), rel=1e-15)
    log_sum = 2.0 * (1.5 - math.log2(eps_cor) - math.log2(eps_pa) - math.log2(eps_hat))
    assert scorer.correction == pytest.approx(log_sum, rel=1e-12)
    if math.sqrt(2.0) * eps_pa * eps_hat >= sys.float_info.min:
        want = product_correction_term(eps)
        if math.isfinite(want):
            assert scorer.correction == want


GOOD_50DB = SnsParams(mu_z=0.2, mu1=0.02, mu2=0.2, p_send=0.01, p_z=0.9, p0=0.5, p1=0.3, delta=0.2)


@settings(max_examples=100, deadline=None)
@given(ANY_EPS, st.tuples(*[ANY_EPS] * 4), st.sampled_from([3e10, 3e12]))
@example(1e-300, (1e-10,) * 4, 3e10)
@example(5e-324, (1e-10,) * 4, 3e10)
def test_eps_cor_moves_the_key_by_the_correction_term(eps_cor, others, pulses):
    # only the correction term reads eps_cor: at fixed parameters, counts
    # and other failure probabilities, the key moves by the change in the
    # correction, clipped at 0.  At the default epsilons the 3e10-pulse
    # block has 1,746 bits before the correction, so its key is positive at
    # eps_cor = 0.5 and clipped to 0 below about 1e-242
    stats = expected_statistics(ChannelModel(), GOOD_50DB, symmetric_arms(1e-5), pulses)
    ref_eps, eps = SecurityEpsilons(0.5, *others), SecurityEpsilons(eps_cor, *others)
    ref, got = skl(stats, ref_eps), skl(stats, eps)
    if others == (1e-10,) * 4 and pulses == 3e10:
        assert ref.skl_bits > 0
    assume(ref.skl_bits > 0)
    assert astuple(got)[:-1] == astuple(ref)[:-1]
    want = max(0.0, ref.skl_bits + correction_term(ref_eps) - correction_term(eps))
    assert got.skl_bits == pytest.approx(want, rel=1e-12, abs=1e-6)


def test_lambda_ec_exact():
    ch, arms = make_channel(45.0)
    stats = expected_statistics(ch, SnsParams(), arms, 1e11)
    out = skl(stats, EPS)
    assert out.lambda_ec == pytest.approx(
        1.11 * out.n_raw * binary_entropy(out.qber_z), rel=1e-12
    )


def test_skl_invariants_over_channel_grid():
    # SKL <= n1 <= n_raw, finite <= asymptotic, across a loss grid
    for loss in np.linspace(20, 90, 20):
        ch, arms = make_channel(float(loss))
        stats = expected_statistics(ch, SnsParams(p_send=0.03), arms, 1e11)
        fin = skl(stats, EPS)
        asy = skl(stats, EPS, asymptotic=True)
        assert fin.skl_bits <= fin.n1_lower + 1e-9
        assert fin.n1_lower <= fin.n_raw + 1e-9
        assert fin.skl_bits <= asy.skl_bits + 1e-9


def test_skl_monotone_in_block_size():
    ch, arms = make_channel(50.0)
    prev = -1.0
    for n in [1e9, 1e10, 1e11, 1e12]:
        out = skl(expected_statistics(ch, GOOD_50DB, arms, n), EPS)
        assert out.skl_bits >= prev
        prev = out.skl_bits


def test_block_doubling_doubles_and_improves():
    ch, arms = make_channel(50.0)
    params = GOOD_50DB
    one = skl(expected_statistics(ch, params, arms, 1e11), EPS)
    two = skl(expected_statistics(ch, params, arms, 2e11), EPS)
    assert two.n_pulses == pytest.approx(2 * one.n_pulses)
    assert two.n_raw == pytest.approx(2 * one.n_raw, rel=1e-12)
    assert two.skl_bits > one.skl_bits


# ------------------------------------------------------------------- optimiser


def test_optimizer_beats_grid_floor():
    ch, arms = make_channel(55.0)
    params, out = accumulate_link([(arms, ch.rep_rate_hz * 100.0)], ch, EPS, max_evals=150)
    for g in DEFAULT_GRID:
        floor = skl(expected_statistics(ch, g, arms, ch.rep_rate_hz * 100.0), EPS)
        assert out.skl_bits >= floor.skl_bits - 1e-9


def test_optimizer_dead_channel_returns_zero():
    ch, arms = make_channel(144.0)
    params, out = accumulate_link([(arms, ch.rep_rate_hz * 10.0)], ch, EPS, max_evals=60)
    assert out.skl_bits == 0.0


def test_optimizer_positive_at_70db_294s():
    ch, arms = make_channel(70.0)
    params, out = accumulate_link([(arms, ch.rep_rate_hz * 294.0)], ch, EPS, max_evals=200)
    assert out.skl_bits > 0.0


def test_optimizer_monotone_in_loss():
    prev_skl = -1.0
    for loss in [60.0, 50.0, 40.0]:
        ch, arms = make_channel(loss)
        _, out = accumulate_link([(arms, ch.rep_rate_hz * 50.0)], ch, EPS, max_evals=120)
        assert out.skl_bits >= prev_skl - 1e-9
        prev_skl = out.skl_bits


def test_optimizer_deterministic():
    ch, arms = make_channel(48.0)
    a = accumulate_link([(arms, ch.rep_rate_hz * 30.0)], ch, EPS, max_evals=100)
    b = accumulate_link([(arms, ch.rep_rate_hz * 30.0)], ch, EPS, max_evals=100)
    assert a[0] == b[0]
    assert a[1].skl_bits == b[1].skl_bits


# ------------------------------------------------ rate against loss: physics
#
# Optimised one-bin symmetric blocks at the default channel, checked against
# twin-field physics rather than against earlier bits.  Twin-field QKD keys
# scale as the square root of the link transmittance eta (M. Lucamarini,
# Z. L. Yuan, J. F. Dynes and A. J. Shields, Nature 557, 400 (2018)) and so
# beat the repeaterless PLOB bound -log2(1 - eta) at high loss (S. Pirandola,
# R. Laurenza, C. Ottaviani and L. Banchi, Nat. Commun. 8, 15043 (2017)).
# eta is the link's channel transmittance, both arms together, detectors
# excluded, which makes PLOB the tighter of the two readings.
#
# Measured on this chain, key per pulse, the log-log slope from 30 to 60 dB
# (d log10 key / d log10 eta) and the key over PLOB at 80 dB:
#   block 1e12: 1.95e-5 at 30 dB, slope 0.549, x1.55
#   block 1e13: 2.14e-5,          slope 0.526, x2.79
#   block 1e14: 2.25e-5,          slope 0.515, x3.64
#   block 1e15: 2.31e-5,          slope 0.509, x4.17
#   block 1e16: 2.36e-5,          slope 0.507, x4.49
# Finite-size terms steepen the slope of small blocks.  The tolerance 0.06
# on |slope - 1/2| covers the largest measured deviation, 0.049 at 1e12, with
# a margin; a chain that lost the square root would read about 1.

RATE_BLOCKS = (1e12, 1e14, 1e16)
RATE_LOSSES_DB = (30.0, 60.0, 80.0)


@pytest.fixture(scope="module")
def rate_vs_loss():
    """{(pulses, loss dB): (eta, optimised params, key per pulse)}, one lockstep call."""
    cases = [(n, db) for n in RATE_BLOCKS for db in RATE_LOSSES_DB]
    etas = [10.0 ** (-db / 10.0) for _, db in cases]
    blocks = [(symmetric_arms([eta]), [n]) for eta, (n, _) in zip(etas, cases)]
    found = accumulate_links(blocks, ChannelModel(), EPS)
    return {
        case: (eta, params, out.skl_bits / case[0])
        for case, eta, (params, out) in zip(cases, etas, found)
    }


@pytest.mark.parametrize("pulses", RATE_BLOCKS)
def test_key_scales_as_square_root_of_transmittance(rate_vs_loss, pulses):
    eta_30, _, key_30 = rate_vs_loss[pulses, 30.0]
    eta_60, _, key_60 = rate_vs_loss[pulses, 60.0]
    assert key_60 > 0.0
    slope = math.log10(key_30 / key_60) / math.log10(eta_30 / eta_60)
    assert abs(slope - 0.5) < 0.06


@pytest.mark.parametrize("pulses", RATE_BLOCKS)
def test_key_beats_the_repeaterless_bound_at_80db(rate_vs_loss, pulses):
    eta, _, key = rate_vs_loss[pulses, 80.0]
    assert key > -math.log2(1.0 - eta)


def test_finite_key_rises_with_the_block_below_the_asymptotic_key(rate_vs_loss):
    ch = ChannelModel()
    for db in RATE_LOSSES_DB:
        keys = [rate_vs_loss[n, db][2] for n in RATE_BLOCKS]
        assert 0.0 < keys[0] < keys[1] < keys[2], db
        for n in RATE_BLOCKS:
            eta, params, key = rate_vs_loss[n, db]
            stats = expected_statistics(ch, params, symmetric_arms(eta), n)
            assert key <= skl(stats, EPS, asymptotic=True).skl_bits / n, (n, db)


# ------------------------------------------------------------------ link pools


def test_accumulate_empty_is_zero():
    p, out = accumulate_link([], ChannelModel(), EPS)
    assert p is None
    assert out == SklBreakdown.zero()


def test_accumulate_duplicated_session_doubles_block():
    ch, _ = make_channel(50.0)
    bins = [(symmetric_arms(10 ** (-50.0 / 10.0)), 1e11)]
    _, one = accumulate_link(bins, ch, EPS, max_evals=80)
    _, two = accumulate_link(bins * 2, ch, EPS, max_evals=80)
    assert two.n_pulses == pytest.approx(2 * one.n_pulses)
    assert two.skl_bits > one.skl_bits


def test_asymmetric_mode_runs():
    ch = ChannelModel()
    stats = expected_statistics(ch, SnsParams(p_send=0.03), (1e-3, 1e-5), 1e12)
    out = skl(stats, EPS)
    assert out.n_raw > 0
    # asymmetric arms are strictly worse than the best-arm symmetric reading
    sym = symmetric_arms(1e-3)
    out_sym = skl(expected_statistics(ch, SnsParams(p_send=0.03), sym, 1e12), EPS)
    assert out_sym.skl_bits >= out.skl_bits


# ------------------------------------------------- batched, lockstep optimiser


def fields_of(candidates):
    """The candidates as the optimiser carries them: the tuples of their fields."""
    return [astuple(p) for p in candidates]


GRID = fields_of(DEFAULT_GRID)


@st.composite
def sns_params(draw):
    mu2 = draw(st.floats(1e-3, 1.5))
    p0 = draw(st.floats(0.01, 0.9))
    return SnsParams(
        mu_z=draw(st.floats(1e-4, 2.0)),
        mu1=mu2 * draw(st.floats(0.02, 0.9)),
        mu2=mu2,
        p_send=draw(st.floats(1e-4, 0.5)),
        p_z=draw(st.floats(0.05, 0.995)),
        p0=p0,
        p1=(0.97 - p0) * draw(st.floats(0.02, 0.98)),
        delta=draw(st.floats(0.01, 1.5)),
    )


@st.composite
def loss_bins(draw, max_bins=20):
    """(arms, pulses) of 1..max_bins bins; arms (B, 2), equal or unequal pairs."""
    n = draw(st.integers(1, max_bins))
    asymmetric = draw(st.booleans())
    losses = draw(st.lists(st.floats(5.0, 90.0), min_size=n * (1 + asymmetric),
                           max_size=n * (1 + asymmetric)))
    eff = 10.0 ** (-np.array(losses) / 10.0)
    if asymmetric:
        arms = eff.reshape(n, 2)
    else:
        arms = symmetric_arms(eff)
    pulses = np.array(draw(st.lists(st.floats(1e6, 1e12), min_size=n, max_size=n)))
    return arms, pulses


@settings(max_examples=60, deadline=None)
@given(st.lists(sns_params(), min_size=1, max_size=12), loss_bins())
def test_batched_pooled_statistics_rows_are_bit_identical(candidates, bins):
    arms, pulses = bins
    candidates = fields_of(candidates)
    ch = ChannelModel()
    shared = pooled_statistics(ch, candidates, arms, pulses)
    per_row = pooled_statistics(
        ch, candidates, np.stack([arms] * len(candidates)), np.stack([pulses] * len(candidates))
    )
    assert shared.shape == per_row.shape == (len(candidates), 24)
    for i, params in enumerate(candidates):
        (one,) = pooled_statistics(ch, [params], arms, pulses)
        assert shared[i].tobytes() == one.tobytes()
        assert per_row[i].tobytes() == one.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(sns_params(), min_size=1, max_size=6), loss_bins(max_bins=_PAIRWISE_BLOCK),
       st.data())
def test_zero_padding_inside_the_band_keeps_counts_bit_identical(candidates, bins, data):
    # numpy sums rows of at most 128 floats with eight accumulators by
    # position mod 8, so trailing +0.0 terms up to 8k + 7 change no sum
    arms, pulses = bins
    n = len(pulses)
    width = data.draw(st.integers(n, min(n | 7, _PAIRWISE_BLOCK)), label="padded width")
    padded_arms = np.zeros((width, 2))
    padded_arms[:n] = arms
    padded_pulses = np.zeros(width)
    padded_pulses[:n] = pulses
    candidates = fields_of(candidates)
    ch = ChannelModel()
    want = pooled_statistics(ch, candidates, arms, pulses).tobytes()
    shared = pooled_statistics(ch, candidates, padded_arms, padded_pulses)
    rows = len(candidates)
    per_row = pooled_statistics(
        ch, candidates, np.stack([padded_arms] * rows), np.stack([padded_pulses] * rows)
    )
    assert shared.tobytes() == want
    assert per_row.tobytes() == want


def test_small_blocks_batch_by_band():
    rng = np.random.default_rng(2)
    blocks = []
    for n in (1, 3, 7, 8, 15, 130):
        arms = 10.0 ** (-rng.uniform(20.0, 50.0, (n, 2)) / 10.0)
        blocks.append((arms, rng.uniform(1e9, 1e11, n)))
    ch = ChannelModel()
    evaluator = _Evaluator(ch, EPS, blocks)
    evaluator.evaluate([(j, p) for j in range(len(blocks)) for p in GRID])
    # one call for 1-7 bins, one for 8-15, and one a candidate for 130 bins,
    # which is evaluated alone, as the one block of the arm table
    assert evaluator.calls == 1 + 1 + len(GRID)
    # each band is stacked once, padded to its widest block
    assert [pulses.shape for _, pulses in evaluator.stacks.values()] == [(3, 7), (2, 15)]
    assert (evaluator.band[5], evaluator.slot[5], len(evaluator.table.sums)) == (None, 0, 1)
    for memo, (arms, pulses) in zip(evaluator.memos, blocks):
        assert memo == {
            astuple(p): astuple(scalar_ledger(ch, p, arms, pulses)) for p in DEFAULT_GRID
        }


def test_pooled_statistics_rejects_misaligned_bins():
    ch = ChannelModel()
    (params,) = fields_of([SnsParams()])
    with pytest.raises(ValueError):
        pooled_statistics(ch, [params], np.full((2, 2), 1e-4), np.array([1e8]))
    with pytest.raises(ValueError):
        pooled_statistics(ch, [params] * 3, np.ones((2, 4, 2)) * 1e-4, np.ones((2, 4)))
    with pytest.raises(ValueError):  # total efficiencies, not arm pairs
        pooled_statistics(ch, [params], np.array([1e-4, 1e-5]), np.array([1e8, 2e8]))


# ------------------------------------------- the vector scorer vs the scalar chain


def scalar_chernoff_lower(expected, log_inv_eps):
    if expected <= 0.0:
        return 0.0
    return max(0.0, expected - math.sqrt(2.0 * expected * log_inv_eps))


def scalar_chernoff_upper(expected, log_inv_eps):
    if expected < 0.0:
        raise ValueError("expected count must be >= 0")
    return expected + math.sqrt(2.0 * expected * log_inv_eps) + log_inv_eps


class ScalarScorer:
    """The finite-key chain on one row of Python floats: the reference for ``_Scorer``."""

    def __init__(self, eps, dark_count_prob, error_correction_factor, asymptotic=False):
        self.ln_n1 = math.log(1.0 / eps.eps_n1)
        self.ln_bar = math.log(1.0 / eps.eps_bar)
        self.correction = correction_term(eps)
        self.pdc = dark_count_prob
        self.f_ec = error_correction_factor
        self.asymptotic = asymptotic

    def y1(self, p, row, stride):
        xp, xc = 4, 13  # offsets of x_pairs and x_clicks in the row
        pairs0, pairs1, pairs2 = row[xp], row[xp + stride], row[xp + 2 * stride]
        clicks0, clicks1, clicks2 = row[xc], row[xc + stride], row[xc + 2 * stride]
        if min(pairs0, pairs1, pairs2) <= 0:
            raise ValueError("decoy estimation needs vacuum and both decoy ensembles")
        if min(clicks0, clicks1, clicks2) < 0:
            raise ValueError("non-physical statistics: negative click counts")
        if self.asymptotic:
            s1 = clicks1 / pairs1
            s2 = clicks2 / pairs2
            s0 = clicks0 / pairs0
            s0_low = s0
        else:
            ln = self.ln_n1
            s1 = scalar_chernoff_lower(clicks1, ln) / pairs1
            s2 = min(1.0, scalar_chernoff_upper(clicks2, ln) / pairs2)
            s0 = min(1.0, scalar_chernoff_upper(clicks0, ln) / pairs0)
            s0_low = scalar_chernoff_lower(clicks0, ln) / pairs0
        mu1, mu2 = p.mu1, p.mu2
        num = mu2**2 * (s1 * math.exp(mu1) - s0) - mu1**2 * (s2 * math.exp(mu2) - s0_low)
        y1 = num / (mu1 * mu2 * (mu2 - mu1))
        return min(1.0, max(0.0, y1))

    def untagged(self, p, row):
        y1a = self.y1(p, row, 3)
        y1b = self.y1(p, row, 1)
        base = row[1] * p.p_send * (1.0 - p.p_send) * p.mu_z * math.exp(-p.mu_z)
        n1 = base * (y1a + y1b)
        if not self.asymptotic:
            n1 = scalar_chernoff_lower(n1, self.ln_n1)
        return max(0.0, n1), y1a, y1b

    def phase_error(self, p, row, y1_mean):
        pairs, errors = row[22], row[23]
        if pairs <= 0:
            return 0.5
        vac_err = pairs * math.exp(-2.0 * p.mu1) * self.pdc
        if self.asymptotic:
            num = errors - vac_err
        else:
            num = (scalar_chernoff_upper(errors, self.ln_bar)
                   - scalar_chernoff_lower(vac_err, self.ln_bar))
        singles = pairs * 2.0 * p.mu1 * math.exp(-2.0 * p.mu1) * y1_mean
        if singles <= 0.0:
            return 0.5
        return min(0.5, max(0.0, num / singles))

    def __call__(self, p, row):
        n_raw = row[2]
        if n_raw <= 0.0:
            return SklBreakdown(row[0], 0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
        qber = min(1.0, row[3] / n_raw)
        n1, y1a, y1b = self.untagged(p, row)
        e1 = self.phase_error(p, row, 0.5 * (y1a + y1b))
        lam_ec = self.f_ec * n_raw * binary_entropy(qber)
        bits = n1 * (1.0 - binary_entropy(e1)) - lam_ec - self.correction
        return SklBreakdown(row[0], n_raw, qber, n1, e1, lam_ec, max(0.0, bits))


def scalar_ledger(channel, params, arms, pulses, eps=EPS):
    """The scalar chain's ledger of ``params`` on a block, from its pooled row."""
    (row,) = pooled_statistics(channel, fields_of([params]), arms, pulses).tolist()
    scorer = ScalarScorer(eps, channel.dark_count_prob, channel.error_correction_factor)
    return scorer(params, row)


def bits_of(ledgers):
    """The bytes of every float of the ledgers, so that -0.0 and 0.0 differ."""
    return np.array([tuple(ledger) for ledger in ledgers], dtype=float).tobytes()


def scalar_outcome(scorer, candidates, rows):
    """The ledgers of the rows scored one at a time, or the first ValueError's message."""
    try:
        return [astuple(scorer(p, row)) for p, row in zip(candidates, rows.tolist())]
    except ValueError as err:
        return str(err)


def vector_outcome(scorer, candidates, rows):
    try:
        return scorer(candidates, rows)
    except ValueError as err:
        return str(err)


EPS_SETS = (EPS, SecurityEpsilons(eps_cor=1e-6, eps_pa=1e-3, eps_hat=1e-5, eps_bar=1e-2,
                                  eps_n1=1e-4))

# what a drawn row is made into: (entries, value), or None for the pooled
# counts as they are; each other edit takes the chain down one of its branches
ROW_EDITS = {
    "pooled": None,
    "no raw clicks": (2, 0.0),
    "negative raw clicks": (2, -1.0),
    "no slice pairs": (22, 0.0),
    # no decoy clicks on either arm: both y1 are 0, so no single-photon events
    "zero singles": (slice(13, 22), 0.0),
    "signed zero clicks": (slice(13, 22), -0.0),
    "signed zero slice errors": (23, -0.0),
    "errors beyond clicks": (3, 1e30),
    "no errors": (3, 0.0),
}

# edits that the chain rejects where it reaches them
BAD_EDITS = {
    "no vacuum pairs": (4, 0.0),
    "no mu2 pairs of arm b": (6, 0.0),
    "negative mu2 clicks of arm a": (19, -1.0),
    "negative mu1 clicks of arm b": (14, -1.0),
    "negative slice errors": (23, -1.0),
    "negative errors": (3, -1.0),
}


@st.composite
def scored_rows(draw, edits):
    """(candidates, (P, 24) rows, P_dc): pooled rows of random bins, each edited by ``edits``."""
    candidates = draw(st.lists(sns_params(), min_size=1, max_size=8))
    arms, pulses = draw(loss_bins(max_bins=6))
    pdc = draw(st.sampled_from((0.0, 1e-9, 1e-6)))
    rows = pooled_statistics(ChannelModel(dark_count_prob=pdc), fields_of(candidates), arms, pulses)
    for row in rows:
        edit = edits[draw(st.sampled_from(sorted(edits)))]
        if edit is not None:
            row[edit[0]] = edit[1]
    if draw(st.booleans()):  # a dead block: no clicks at all
        rows[draw(st.integers(0, len(rows) - 1)), 2:] = 0.0
    return candidates, rows, pdc


@settings(max_examples=150, deadline=None)
@given(scored_rows(ROW_EDITS), st.sampled_from(EPS_SETS), st.booleans(),
       st.sampled_from((1.0, 1.11, 1.2)))
def test_vector_scorer_matches_the_scalar_chain_bit_for_bit(drawn, eps, asymptotic, f_ec):
    candidates, rows, pdc = drawn
    want = scalar_outcome(ScalarScorer(eps, pdc, f_ec, asymptotic), candidates, rows)
    got = vector_outcome(_Scorer(eps, pdc, f_ec, asymptotic), fields_of(candidates), rows)
    if isinstance(want, str):  # a zeroed decoy ensemble on a live row
        assert got == want
    else:
        assert bits_of(got) == bits_of(want)
        assert all(type(v) is float for ledger in got for v in ledger)


@settings(max_examples=100, deadline=None)
@given(scored_rows(BAD_EDITS), st.sampled_from(EPS_SETS), st.booleans())
def test_vector_scorer_raises_where_the_scalar_chain_raises(drawn, eps, asymptotic):
    candidates, rows, pdc = drawn
    want = scalar_outcome(ScalarScorer(eps, pdc, 1.11, asymptotic), candidates, rows)
    got = vector_outcome(_Scorer(eps, pdc, 1.11, asymptotic), fields_of(candidates), rows)
    if isinstance(want, str):
        assert got == want
    else:  # every bad row was dead, or its bad count was not read
        assert bits_of(got) == bits_of(want)


def test_every_error_of_the_chain_is_raised():
    ch, arms = make_channel(30.0)
    row = pooled_statistics(ch, fields_of([SnsParams()]), np.array([arms]), np.array([1e10]))
    for name, (entries, value) in BAD_EDITS.items():
        bad = row.copy()
        bad[0, entries] = value
        want = scalar_outcome(ScalarScorer(EPS, 1e-9, 1.11), [SnsParams()], bad)
        assert isinstance(want, str), name
        got = vector_outcome(_Scorer(EPS, 1e-9, 1.11), fields_of([SnsParams()]), bad)
        assert got == want, name


@pytest.mark.parametrize("rows", [1, 2, 3, 17])
def test_signed_zeros_match_the_scalar_chain(rows):
    # numpy's fmax returns either zero for (-0.0, 0.0), depending on the
    # element's position; Python's max(0.0, -0.0) is 0.0.  With no dark
    # counts and -0.0 slice errors, the asymptotic phase error is max(0.0, -0.0)
    ch, arms = make_channel(30.0)
    candidates = [SnsParams()] * rows
    counts = pooled_statistics(ChannelModel(dark_count_prob=0.0), fields_of(candidates),
                               np.array([arms]), np.array([1e11]))
    counts[:, 23] = -0.0
    counts[1::2, 23] = 0.0
    for asymptotic in (False, True):
        want = scalar_outcome(ScalarScorer(EPS, 0.0, 1.11, asymptotic), candidates, counts)
        got = _Scorer(EPS, 0.0, 1.11, asymptotic)(fields_of(candidates), counts)
        assert bits_of(got) == bits_of(want)


def test_squares_stay_libm_pow():
    # CPython's x ** 2 calls libm pow, which is not always x * x; the scorer
    # squares mu1 and mu2 in Python, so that its bits stay the scalar chain's
    trap = 0.18750000000000003
    assert trap**2 != trap * trap
    candidates = [SnsParams(mu1=trap * r, mu2=trap) for r in (0.05, 0.1, 0.2, 0.5)]
    candidates += [SnsParams(mu1=trap, mu2=mu2) for mu2 in (0.25, 0.5, 1.0)]
    ch, arms = make_channel(30.0)
    rows = pooled_statistics(ch, fields_of(candidates), np.array([arms]), np.array([1e11]))
    for asymptotic in (False, True):
        want = scalar_outcome(ScalarScorer(EPS, 1e-9, 1.11, asymptotic), candidates, rows)
        got = _Scorer(EPS, 1e-9, 1.11, asymptotic)(fields_of(candidates), rows)
        assert bits_of(got) == bits_of(want)


def test_skl_and_its_untagged_bound_equal_the_scalar_chain():
    # expected_statistics keeps the counts of its pooled row, which the
    # scalar chain scores
    for loss in (20.0, 45.0, 70.0, 144.0):
        ch, arms = make_channel(loss)
        for params in DEFAULT_GRID[::7]:
            stats = expected_statistics(ch, params, arms, 1e11)
            (row,) = pooled_statistics(
                ch, fields_of([params]), np.array([arms]), np.array([1e11])
            ).tolist()
            for asymptotic in (False, True):
                scorer = ScalarScorer(EPS, 1e-9, 1.11, asymptotic)
                want = scorer(params, row)
                got = skl(stats, EPS, asymptotic)
                assert bits_of([astuple(got)]) == bits_of([astuple(want)])
                assert got.n1_lower == scorer.untagged(params, row)[0]


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


def _reference_steps(start, max_evals):
    """The coordinate search on ``SnsParams`` and coordinate dicts, as a generator.

    It yields each candidate, is sent its value and returns (best params,
    best value): the reference for ``_coordinate_search``, which steps on
    field tuples.
    """
    best_p = start
    best_v = yield start
    evals = 1
    step = 1.6
    while evals < max_evals and step > 1.005:
        improved = False
        vec = _params_to_vector(best_p)
        for name in _BOUNDS:
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


def _reference_search(objective, start, max_evals):
    """The one-candidate-at-a-time coordinate search the lockstep driver replaced."""
    steps = _reference_steps(start, max_evals)
    candidate = next(steps)
    try:
        while True:
            candidate = steps.send(objective(candidate))
    except StopIteration as done:
        return done.value


def _reference_optimize(channel, eps, arms, pulses, n_starts, max_evals):
    def objective(params):
        return scalar_ledger(channel, params, arms, pulses, eps).skl_bits

    scored = [(objective(p), i, p) for i, p in enumerate(DEFAULT_GRID)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    best_v, _, best_p = scored[0]
    for seed in [best_p, DEFAULT_PARAMS, scored[1][2]][: max(n_starts, 1)]:
        p, v = _reference_search(objective, seed, max_evals)
        if v > best_v:
            best_v, best_p = v, p
    return best_p, scalar_ledger(channel, best_p, arms, pulses, eps)


@st.composite
def link_block(draw):
    """(arms, pulses) block of 1-20 bins between 20 and 60 dB."""
    n = draw(st.integers(1, 20))
    asymmetric = draw(st.booleans())
    losses = np.array(draw(st.lists(st.floats(20.0, 60.0), min_size=n * (1 + asymmetric),
                                    max_size=n * (1 + asymmetric))))
    eff = 10.0 ** (-losses / 10.0)
    arms = eff.reshape(n, 2) if asymmetric else symmetric_arms(eff)
    return arms, np.array(draw(st.lists(st.floats(1e9, 1e12), min_size=n, max_size=n)))


def bins_of(block):
    """The block as accumulate_link's ((eta_a, eta_b), pulse count) bins."""
    arms, pulses = block
    return list(zip(map(tuple, arms.tolist()), pulses.tolist()))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(link_block(), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 80),
)
def test_lockstep_optimiser_matches_sequential_reference(blocks, n_starts, max_evals):
    ch = ChannelModel()
    together = accumulate_links(blocks, ch, EPS, n_starts=n_starts, max_evals=max_evals)
    for block, got in zip(blocks, together):
        assert got == _reference_optimize(ch, EPS, *block, n_starts, max_evals)
        bins = bins_of(block)
        assert accumulate_link(bins, ch, EPS, n_starts=n_starts, max_evals=max_evals) == got


@st.composite
def box_points(draw):
    """A point inside the search's box: every coordinate within ``_BOUNDS``, p0 + p1 < 0.98."""
    point = {name: draw(st.floats(lo, hi), label=name) for name, (lo, hi) in _BOUNDS.items()}
    assume(point["p0"] + point["p1"] < 0.98)
    return _vector_to_params(point)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(DEFAULT_GRID), st.just(DEFAULT_PARAMS), box_points()),
       st.integers(1, 400), st.data())
def test_tuple_search_steps_as_the_params_reference(start, max_evals, data):
    # both searches are sent the same values: each a loss, a tie or a gain
    # against the best value sent so far
    want, got = _reference_steps(start, max_evals), _coordinate_search(astuple(start), max_evals)
    want_candidate, candidate = next(want), next(got)
    best, steps = 0.0, 0
    while True:
        assert candidate == astuple(want_candidate)
        assert all(type(x) is float for x in candidate)
        SnsParams(*candidate)  # a valid point: no ValueError
        value = best + data.draw(st.sampled_from((-1.0, 0.0, 1.0)), label="change")
        best = max(best, value)
        steps += 1
        try:
            want_candidate = want.send(value)
        except StopIteration as done:
            want_result = done.value
            break
        candidate = got.send(value)
    with pytest.raises(StopIteration) as done:
        got.send(value)
    (best_p, best_v), (got_p, got_v) = want_result, done.value.value
    assert (got_p, got_v) == (astuple(best_p), best_v)
    assert steps <= max_evals


def large_block(seed, n_bins):
    """Asymmetric block of ``n_bins`` bins, arms within 3 dB of each other, 20-40 dB."""
    rng = np.random.default_rng(seed)
    loss_a = rng.uniform(20.0, 40.0, n_bins)
    loss_b = loss_a + rng.uniform(-3.0, 3.0, n_bins)
    arms = 10.0 ** (-np.stack([loss_a, loss_b], axis=1) / 10.0)
    return arms, rng.uniform(1e7, 1e9, n_bins)


# the smallest block evaluated one candidate a call, through its kernel
# memo, and a block of more than _BATCH_CELLS // 2 bins, the size of an
# asymmetric day's blocks
SMALLEST_LARGE = _PAIRWISE_BLOCK + 1
LARGE = _BATCH_CELLS // 2 + 1

# a block of one bin of 30 dB arms
ONE_BIN = (np.array([[1e-3, 1e-3]]), np.array([1e12]))


@settings(max_examples=4, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
    st.one_of(st.integers(SMALLEST_LARGE, LARGE - 1), st.integers(LARGE, LARGE + 251)),
    link_block(),
    st.integers(1, 3),
    st.integers(1, 30),
)
def test_lockstep_optimiser_matches_reference_on_large_blocks(
    seeds, n_bins, small, n_starts, max_evals
):
    ch = ChannelModel()
    blocks = [large_block(seed, n_bins) for seed in seeds] + [small]
    together = accumulate_links(blocks, ch, EPS, n_starts=n_starts, max_evals=max_evals)
    for block, got in zip(blocks, together):
        assert got == _reference_optimize(ch, EPS, *block, n_starts, max_evals)


def count_calls(monkeypatch, name):
    """The positional arguments of every call of ``keyrate.name``."""
    calls = []
    original = getattr(keyrate, name)
    monkeypatch.setattr(keyrate, name, lambda *args: calls.append(args) or original(*args))
    return calls


def count_method_calls(monkeypatch, cls, name):
    """The arguments, after self, of every call of ``cls.name``."""
    calls = []
    original = getattr(cls, name)
    monkeypatch.setattr(
        cls, name, lambda self, *args: calls.append(args) or original(self, *args)
    )
    return calls


def test_one_evaluate_call_is_one_scoring_pass(monkeypatch):
    # banded blocks, and two blocks of more than 128 bins, which evaluate
    # one candidate a call through their memos: all rows of the call are
    # scored together
    rng = np.random.default_rng(5)
    blocks = []
    for n in (2, 5, 9, 130):
        arms = 10.0 ** (-rng.uniform(20.0, 50.0, (n, 2)) / 10.0)
        blocks.append((arms, rng.uniform(1e9, 1e11, n)))
    blocks.append(large_block(6, LARGE))
    ch = ChannelModel()
    evaluator = _Evaluator(ch, EPS, blocks)
    passes = count_method_calls(monkeypatch, _Scorer, "__call__")
    requests = [(j, p) for j in range(len(blocks)) for p in GRID[:20]]
    evaluator.evaluate(requests + requests[:7])  # repeats are scored once
    assert evaluator.calls == 1 + 1 + 20 + 20
    assert [len(candidates) for candidates, _ in passes] == [len(requests)]
    assert evaluator.passes == 1
    evaluator.evaluate(requests)  # all memoised: nothing to score
    assert len(passes) == evaluator.passes == 1
    for memo, (arms, pulses) in zip(evaluator.memos, blocks):
        for p in DEFAULT_GRID[:20]:
            want = scalar_ledger(ch, p, arms, pulses)
            assert bits_of([memo[astuple(p)]]) == bits_of([astuple(want)])


def test_accumulate_links_makes_params_only_for_its_winners(monkeypatch):
    # the optimiser carries candidates as field tuples; a SnsParams is made
    # for each block's winner, and no more
    blocks = [ONE_BIN, large_block(8, LARGE), (symmetric_arms([1e-3, 1e-4]), [1e11, 3e11])]
    made = count_method_calls(monkeypatch, SnsParams, "__init__")
    results = accumulate_links(blocks + [(np.empty((0, 2)), [])], ChannelModel(), EPS,
                               max_evals=30)
    assert 0 < len(made) <= len(blocks)
    assert [type(p) for p, _ in results] == [SnsParams] * len(blocks) + [type(None)]


def test_kernel_memo_skips_recomputing_unchanged_kernels(monkeypatch):
    ch = ChannelModel()
    block = large_block(7, LARGE)
    base = SnsParams()
    candidates = [base, SnsParams(p_send=0.1), SnsParams(p_z=0.6), SnsParams(p0=0.4),
                  SnsParams(p1=0.2), SnsParams(p_send=0.2, p_z=0.5, p0=0.3, p1=0.4)]
    want = [scalar_ledger(ch, p, *block) for p in candidates]
    calls = {name: count_calls(monkeypatch, name)
             for name in ("_z_clicks", "_x_clicks", "_slice_clicks")}
    evaluator = _Evaluator(ch, EPS, [block])
    evaluator.evaluate([(0, p) for p in fields_of(candidates)])
    table = evaluator.table
    assert [SklBreakdown(*evaluator.memos[0][p]) for p in fields_of(candidates)] == want
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    # a group's sums are reused while the fields its counts read repeat:
    # z reads (p_z, p_send, mu_z), x (p_z, p0, p1, mu1, mu2), slice (p_z, p1, mu1, delta)
    assert table.sum_hits == {"n": 5, "z": 2, "x": 1, "slice": 2}
    assert table.sum_misses == {"n": 1, "z": 4, "x": 5, "slice": 4}
    # and only a sum miss looks its kernel up, in the arm table
    assert table.hits == {"z": 3, "x": 4, "slice": 3}
    assert table.misses == {"z": 1, "x": 1, "slice": 1}
    # a batched block of a few bins computes its kernels on its own arms,
    # without a memo: its table holds no block
    small = _Evaluator(ch, EPS, [(block[0][:3], block[1][:3])])
    small.evaluate([(0, p) for p in fields_of(candidates)])
    assert len(calls["_slice_clicks"]) == 2
    assert (small.table.size, small.table.bins, small.table.sums) == (0, 0, [])
    assert small.table.sum_hits == small.table.sum_misses == dict.fromkeys(table.sum_hits, 0)


@st.composite
def candidate_walk(draw):
    """2-12 candidates whose fields come from two values each, so groups repeat."""
    def pick(a, b):
        return draw(st.sampled_from((a, b)))

    return [
        SnsParams(mu_z=pick(0.2, 0.45), mu1=pick(0.01, 0.02), mu2=pick(0.1, 0.3),
                  p_send=pick(0.02, 0.1), p_z=pick(0.6, 0.9), p0=pick(0.3, 0.5),
                  p1=pick(0.2, 0.3), delta=pick(0.3, 1.0))
        for _ in range(draw(st.integers(2, 12)))
    ]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.integers(SMALLEST_LARGE, LARGE - 1), st.just(LARGE)), candidate_walk())
def test_memoised_rows_equal_the_inline_rows(seed, n_bins, candidates):
    arms, pulses = large_block(seed, n_bins)
    ch = ChannelModel()
    table = _ArmTable(ch, [arms])
    for params in fields_of(candidates):
        got = pooled_statistics(ch, [params], arms, pulses, (table, 0))
        assert got.tobytes() == pooled_statistics(ch, [params], arms, pulses).tobytes()
    assert table.sum_hits["n"] == len(candidates) - 1
    assert sum(table.sum_hits.values()) + sum(table.sum_misses.values()) == 4 * len(candidates)


class Unreadable:
    """Arm efficiencies that fail the test when anything reads them."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("a memo call read its block's arms")

    __getitem__ = __len__ = __array__


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(SMALLEST_LARGE, LARGE + 40), candidate_walk())
def test_memo_calls_form_no_detected_arms(seed, n_bins, candidates):
    # a memo call takes every kernel from the arm table, so it neither reads
    # nor forms its block's detected arms; here its block is the table's second
    arms, pulses = large_block(seed, n_bins)
    ch = ChannelModel()
    table = _ArmTable(ch, [ONE_BIN[0], arms])
    for params in fields_of(candidates):
        got = pooled_statistics(ch, [params], Unreadable(), pulses, (table, 1))
        assert got.tobytes() == pooled_statistics(ch, [params], arms, pulses).tobytes()


# the one ISL arm of pooled_blocks, and its uplink arms on a 0.01 dB grid
ISL_ARM = 10.0 ** (-1.7)
UPLINK_GRID = 10.0 ** (-np.arange(2000, 4000) / 1000.0)


@st.composite
def pooled_blocks(draw):
    """2-4 asymmetric blocks of more than ``_BATCH_CELLS // 2`` bins, arms from one pool.

    Like every block of more than ``_PAIRWISE_BLOCK`` bins, each is
    evaluated one candidate a call, through its memo and the optimiser
    call's arm table.  Each bin pairs an uplink arm with the one ISL arm.  The uplink arms come
    from values shared by all blocks, values of one block only, 0.0 and
    -0.0; some blocks put the ISL arm first.  All blocks may hold their
    arms in column-major order, as a station's asymmetric blocks do.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_blocks = draw(st.integers(2, 4))
    order = draw(st.sampled_from("CF"))
    grid = rng.permutation(UPLINK_GRID)
    shared = draw(st.integers(1, 30))
    private = [draw(st.integers(0, 30)) for _ in range(n_blocks)]
    starts = shared + np.cumsum([0] + private)
    blocks = []
    for j in range(n_blocks):
        values = np.concatenate([grid[:shared], grid[starts[j] : starts[j + 1]], [0.0, -0.0]])
        n_bins = draw(st.integers(LARGE, LARGE + 40))
        uplink = rng.choice(values, n_bins)
        pairs = (np.full(n_bins, ISL_ARM), uplink)
        arms = np.stack(pairs if draw(st.booleans()) else pairs[::-1], axis=1)
        blocks.append((np.asarray(arms, order=order), rng.uniform(1e7, 1e9, n_bins)))
    return blocks


def distinct_arms(blocks):
    """The number of distinct (eta_a, eta_b) bit patterns of the blocks' bins."""
    return len({row.tobytes() for arms, _ in blocks for row in arms})


@settings(max_examples=6, deadline=None)
@given(pooled_blocks(), st.booleans(), st.data(), st.integers(1, 3), st.integers(1, 12))
def test_arm_table_rows_equal_the_inline_rows(blocks, same_walk, data, n_starts, max_evals):
    # blocks read kernels that other blocks computed, including the
    # separate entries of 0.0 and -0.0 arms
    ch = ChannelModel()
    table = _ArmTable(ch, [arms for arms, _ in blocks])
    assert (table.size, table.bins) == (distinct_arms(blocks), sum(len(w) for _, w in blocks))
    memos = [(table, k) for k in range(len(blocks))]
    walk = fields_of(data.draw(candidate_walk()))
    walks = [walk if same_walk else fields_of(data.draw(candidate_walk())) for _ in blocks]
    for step in range(max(map(len, walks))):
        for (arms, pulses), walk, memo in zip(blocks, walks, memos):
            if step < len(walk):
                got = pooled_statistics(ch, [walk[step]], arms, pulses, memo)
                assert got.tobytes() == pooled_statistics(ch, [walk[step]], arms, pulses).tobytes()
    together = accumulate_links(blocks, ch, EPS, n_starts=n_starts, max_evals=max_evals)
    for block, got in zip(blocks, together):
        assert got == _reference_optimize(ch, EPS, *block, n_starts, max_evals)


def count_entries(monkeypatch):
    """Per kernel kind, the ``ta`` arms of each call of its kernel, in order, while patched."""
    entries = {kind: [] for kind in _TABLE_CAPS}
    for kind in entries:
        name = f"_{kind}_clicks"
        original = getattr(keyrate, name)

        def counted(ta, *args, kind=kind, original=original):
            entries[kind].append(ta)
            return original(ta, *args)

        monkeypatch.setattr(keyrate, name, counted)
    return entries


def totals(entries):
    """Per kernel kind, the entries its recorded calls computed."""
    return {kind: sum(ta.size for ta in calls) for kind, calls in entries.items()}


def kernel_keys(candidates):
    """The distinct kernel keys of each kind that the candidates read."""
    keys = {"z": {p.mu_z for p in candidates}, "x": {(p.mu1, p.mu2) for p in candidates},
            "slice": {(p.mu1, p.delta) for p in candidates}}
    return {kind: len(found) for kind, found in keys.items()}


@settings(max_examples=5, deadline=None)
@given(pooled_blocks(), candidate_walk())
def test_identical_walks_compute_each_distinct_arm_once_per_key(blocks, walk):
    # a walk reads at most two values of each field: no more kernel keys of
    # a kind than the table keeps, so no entry is computed twice
    assert all(n <= _TABLE_CAPS[kind] for kind, n in kernel_keys(walk).items())
    evaluator = _Evaluator(ChannelModel(), EPS, blocks)
    with pytest.MonkeyPatch.context() as monkeypatch:
        entries = count_entries(monkeypatch)
        evaluator.evaluate([(j, p) for p in fields_of(walk) for j in range(len(blocks))])
    size = distinct_arms(blocks)
    assert evaluator.table.size == size
    assert totals(entries) == {kind: size * n for kind, n in kernel_keys(walk).items()}
    assert evaluator.table.misses == kernel_keys(walk)


@st.composite
def disjoint_blocks(draw):
    """2-3 large blocks of random arms: they share no (eta_a, eta_b) pair."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3, unique=True))
    blocks = [large_block(seed, LARGE + j) for j, seed in enumerate(seeds)]
    assert distinct_arms(blocks) == sum(len(w) for _, w in blocks)
    return blocks


@settings(max_examples=8, deadline=None)
@given(st.one_of(disjoint_blocks(), pooled_blocks()), st.data())
def test_each_table_miss_computes_a_whole_kernel_and_no_resident_key_again(blocks, data):
    # whichever block asks for a kernel, a miss computes it on every
    # distinct arm of the table, and a kernel the table holds is only gathered
    walks = [fields_of(data.draw(candidate_walk())) for _ in blocks]
    evaluator = _Evaluator(ChannelModel(), EPS, blocks)
    table = evaluator.table
    with pytest.MonkeyPatch.context() as monkeypatch:
        entries = count_entries(monkeypatch)
        for step in range(max(map(len, walks))):
            for j, walk in enumerate(walks):
                if step >= len(walk):
                    continue
                resident = {kind: set(cache) for kind, cache in table.caches.items()}
                before = {kind: len(calls) for kind, calls in entries.items()}
                evaluator.evaluate([(j, walk[step])])
                for kind, cache in table.caches.items():
                    computed = [ta.size for ta in entries[kind][before[kind]:]]
                    assert computed in ([], [table.size])
                    if computed:  # the key just computed is the most recently used
                        assert next(reversed(cache)) not in resident[kind]
    assert totals(entries) == {kind: n * table.size for kind, n in table.misses.items()}


def slice_clicks_all_nodes(ta, tb, mu1, delta, eopt, pdc):
    """The phase-slice kernel evaluated at all 24 Gauss-Legendre nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    colsum = ta + tb
    vis = np.where(colsum > 0, 2.0 * np.sqrt(ta * tb) / np.where(colsum > 0, colsum, 1.0), 0.0)
    mod = (vis * (1.0 - 2.0 * eopt))[..., None] * np.cos(delta * nodes)[:, None, :]
    nu = 0.5 * (mu1 * colsum)[..., None] * (1.0 - mod)
    return (_click(nu, pdc) * (weights / 2.0)).sum(axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 300), st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.5), st.floats(0.0, 0.999),
)
def test_slice_kernel_mirrors_its_negative_nodes(rows, n_bins, seed, eopt, pdc):
    # _slice_clicks evaluates 12 nodes and mirrors them: it rests on numpy's
    # leggauss making nodes exactly antisymmetric and weights exactly symmetric
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    rng = np.random.default_rng(seed)
    ta, tb = 10.0 ** (-rng.uniform(0.0, 9.0, (2, rows, n_bins)))
    ta[rng.random(ta.shape) < 0.05] = 0.0  # dead arms and zero-padding bins
    tb[rng.random(tb.shape) < 0.05] = 0.0
    mu1 = rng.uniform(1e-4, 1.5, (rows, 1))
    delta = rng.uniform(0.01, 1.5, (rows, 1))
    assert np.array_equal(
        _slice_clicks(ta, tb, mu1, delta, eopt, pdc),
        slice_clicks_all_nodes(ta, tb, mu1, delta, eopt, pdc),
    )


def record_tables(monkeypatch):
    """Every ``_ArmTable`` made while patched."""
    made = []

    class Recorded(_ArmTable):
        def __init__(self, channel, arm_blocks):
            super().__init__(channel, arm_blocks)
            made.append(self)

    monkeypatch.setattr(keyrate, "_ArmTable", Recorded)
    return made


def test_kernel_memo_stays_within_its_caps(monkeypatch):
    tables = record_tables(monkeypatch)
    calls = count_calls(monkeypatch, "pooled_statistics")
    blocks = [large_block(3, LARGE), large_block(4, LARGE + 10), ONE_BIN]
    accumulate_links(blocks, ChannelModel(), EPS, max_evals=120)
    # the two large blocks are the blocks of one table, the only memo of sums
    # and of kernels, which are table-length; the batched block of one bin has no memo
    (table,) = tables
    assert len(table.sums) == 2
    memos = {(id(args[4][0]), args[4][1]) for args in calls if len(args) == 5}
    assert memos == {(id(table), 0), (id(table), 1)}
    assert (table.size, table.bins) == (2 * LARGE + 10, 2 * LARGE + 10)
    assert table.misses["slice"] > _TABLE_CAPS["slice"]  # the cap was reached
    for kind, cache in table.caches.items():
        assert len(cache) <= _TABLE_CAPS[kind]
        for parts in cache.values():
            assert all(part.shape[-1] == table.size for part in parts)


def test_optimiser_logs_one_debug_line_per_call(caplog, capsys, monkeypatch):
    # two large blocks with the same arms, and one batched block
    arms, pulses = large_block(5, LARGE)
    blocks = [(arms, pulses), (arms, pulses[::-1]), ONE_BIN]
    accumulate_links(blocks, ChannelModel(), EPS, max_evals=20)
    assert capsys.readouterr() == ("", "")
    # each batched evaluation is one call of the public pooled_statistics,
    # so profilers that wrap that name see every one
    calls = count_calls(monkeypatch, "pooled_statistics")
    # and each evaluate call is one scoring pass
    evaluations = count_method_calls(monkeypatch, _Evaluator, "evaluate")
    # the kernel entries computed, all through the arm table
    entries, tables = count_entries(monkeypatch), record_tables(monkeypatch)
    # the values sent to the searches, and the candidates scored
    steps, scored = [], count_method_calls(monkeypatch, _Scorer, "__call__")
    search = keyrate._coordinate_search

    def counted_search(start, max_evals):
        inner = search(start, max_evals)
        candidate = next(inner)
        while True:
            value = yield candidate
            steps.append(value)
            try:
                candidate = inner.send(value)
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(keyrate, "_coordinate_search", counted_search)
    with caplog.at_level("DEBUG", logger="ringqkd.keyrate"):
        accumulate_links(blocks, ChannelModel(), EPS, max_evals=20)
    (record,) = caplog.records
    message = record.getMessage()
    assert message.startswith("optimised 3 blocks in ")
    assert len(evaluations) > 1
    assert (f" evaluations over {len(calls)} batched calls and {len(evaluations)} scoring "
            "passes; ") in message
    # a round is one evaluate call after the grid's; a revisit is a step
    # that no evaluation answered: the grid seeds are two of them per block
    evaluated = sum(len(candidates) for candidates, _ in scored)
    revisits = len(steps) - (evaluated - 3 * len(DEFAULT_GRID))
    assert revisits >= 2 * 3
    assert (f"optimised 3 blocks in {len(evaluations) - 1} rounds, {len(steps)} search steps "
            f"({revisits} revisits) and {evaluated} evaluations over ") in message
    (table,) = tables
    hits = ", ".join(f"{kind} {table.hits[kind]}/{table.misses[kind]}" for kind in _TABLE_CAPS)
    sums = ", ".join(f"{g} {table.sum_hits[g]}/{table.sum_misses[g]}" for g in table.sum_hits)
    assert f"; kernel memo hits/misses: {hits}; sum memo hits/misses: {sums}; " in message
    # the totals of both large blocks: each memo call looks each group's sums up once
    memo_calls = sum(len(args) == 5 for args in calls)
    assert memo_calls > len(DEFAULT_GRID)
    assert {g: table.sum_hits[g] + table.sum_misses[g] for g in table.sum_hits} == dict.fromkeys(
        ("n", "z", "x", "slice"), memo_calls)
    # the batched block computes its kernels on arms of its own
    computed = totals({kind: [ta for ta in calls if ta is table.ta]
                       for kind, calls in entries.items()})
    assert message.endswith(
        f"; arm table: {LARGE} distinct arms of {2 * LARGE} bins, kernel entries computed: "
        f"z {computed['z']}, x {computed['x']}, slice {computed['slice']}"
    )
    # the blocks share every arm: each table miss computes the kernel on all of them
    assert computed == {kind: n * LARGE for kind, n in table.misses.items()}
    assert all(n > 0 for n in table.misses.values())
