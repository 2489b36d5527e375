"""Key-rate tests: click model vs Monte-Carlo oracle, decoy bounds, SKL."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    chernoff_lower,
    chernoff_upper,
    correction_term,
    estimate_untagged,
    expected_statistics,
    monte_carlo_statistics,
    pooled_statistics,
    skl,
    symmetric_arms,
)
from ringqkd.keyrate import (
    _BATCH_CELLS,
    _BOUNDS,
    _COORDS,
    _KERNEL_CAPS,
    _evaluate,
    _KernelMemo,
    _params_to_vector,
    _vector_to_params,
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
    with pytest.raises(ValueError):  # one bin of total efficiency among arm pairs
        accumulate_link([((1e-3, 1e-3), 1e6), (1e-3, 1e6)], ch, EPS, max_evals=1)
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
            accumulate_links([[(arms, 1e9)], [(arms, bad)]], ch, EPS, max_evals=1)
    for bad in (math.nan, 0.5, math.inf):
        with pytest.raises(ValueError):
            expected_statistics(ch, SnsParams(), arms, bad)


def test_epsilons_composition():
    e = SecurityEpsilons()
    assert e.eps_sec == pytest.approx(4e-10)
    assert e.eps_tol == pytest.approx(5e-10)


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
    params = SnsParams()
    arms_a, arms_b = symmetric_arms(1e-4), symmetric_arms(1e-5)
    one = pooled_statistics(ch, params, np.array([arms_a, arms_b]), np.array([1e8, 2e8]))
    a = pooled_statistics(ch, params, np.array([arms_a]), np.array([1e8]))
    b = pooled_statistics(ch, params, np.array([arms_b]), np.array([2e8]))
    assert one.z_clicks == pytest.approx(a.z_clicks + b.z_clicks, rel=1e-12)
    assert one.slice_error_clicks == pytest.approx(
        a.slice_error_clicks + b.slice_error_clicks, rel=1e-12
    )


# ------------------------------------------------------------------ estimation


def test_untagged_zero_when_no_detections():
    ch = ChannelModel(dark_count_prob=0.0)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e6)
    n1, _ = estimate_untagged(stats, EPS)
    assert n1 == 0.0


def test_asymptotic_bound_dominates_finite():
    ch, arms = make_channel(40.0)
    stats = expected_statistics(ch, SnsParams(), arms, 1e10)
    n1_fin, _ = estimate_untagged(stats, EPS)
    n1_asy, _ = estimate_untagged(stats, EPS, asymptotic=True)
    assert n1_asy >= n1_fin


def test_untagged_brackets_tagged_monte_carlo():
    # small instance: the analytic bound must sit within [0.5x, 1.0x] of the
    # photon-number-tagged truth
    ch, arms = make_channel(30.0)
    params = SnsParams(mu_z=0.4, mu1=0.03, mu2=0.3, p_send=0.1, p_z=0.7, p0=0.4, p1=0.35, delta=0.8)
    n = 1_000_000
    mc = monte_carlo_statistics(ch, params, arms, n, seed=11, tagged=True)
    n1, _ = estimate_untagged(mc, EPS, asymptotic=True)
    truth = mc.tagged_untagged_clicks
    assert truth > 0
    assert 0.5 * truth <= n1 <= 1.02 * truth


def test_decoy_needs_all_ensembles():
    ch, arms = make_channel(30.0)
    stats = expected_statistics(ch, SnsParams(), arms, 1e8)
    stats.x_pairs[0, 0] = 0.0
    with pytest.raises(ValueError):
        estimate_untagged(stats, EPS)


# ------------------------------------------------------------------------- SKL


def test_skl_zero_cases():
    # no untagged bits -> zero key
    ch = ChannelModel(dark_count_prob=0.0)
    stats = expected_statistics(ch, SnsParams(), symmetric_arms(0.0), 1e6)
    out = skl(stats, EPS)
    assert out.skl_bits == 0.0
    assert out.n_raw == 0.0


def test_correction_term_closed_form():
    e = EPS
    want = 2.0 * math.log2((2.0 / e.eps_cor) * (2.0 / (math.sqrt(2.0) * e.eps_pa * e.eps_hat)))
    assert correction_term(e) == want
    assert want == pytest.approx(202.316, abs=0.01)


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


GOOD_50DB = SnsParams(mu_z=0.2, mu1=0.02, mu2=0.2, p_send=0.01, p_z=0.9, p0=0.5, p1=0.3, delta=0.2)


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


def test_optimizer_monotone_in_loss_with_warm_start():
    losses = [60.0, 50.0, 40.0]
    prev_params = ()
    prev_skl = -1.0
    for loss in losses:
        ch, arms = make_channel(loss)
        p, out = accumulate_link(
            [(arms, ch.rep_rate_hz * 50.0)], ch, EPS, max_evals=120, extra_seeds=prev_params
        )
        assert out.skl_bits >= prev_skl - 1e-9
        prev_params = (p,)
        prev_skl = out.skl_bits


def test_optimizer_deterministic():
    ch, arms = make_channel(48.0)
    a = accumulate_link([(arms, ch.rep_rate_hz * 30.0)], ch, EPS, max_evals=100)
    b = accumulate_link([(arms, ch.rep_rate_hz * 30.0)], ch, EPS, max_evals=100)
    assert a[0] == b[0]
    assert a[1].skl_bits == b[1].skl_bits


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
        arms = np.array([symmetric_arms(e) for e in eff.tolist()])
    pulses = np.array(draw(st.lists(st.floats(1e6, 1e12), min_size=n, max_size=n)))
    return arms, pulses


STAT_FIELDS = ("n_pulses", "n_z", "z_clicks", "z_errors", "slice_pairs",
               "slice_error_clicks", "slice_correct_clicks")


def assert_same_statistics(a, b):
    for name in STAT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.x_pairs, b.x_pairs)
    assert np.array_equal(a.x_clicks, b.x_clicks)


@settings(max_examples=60, deadline=None)
@given(st.lists(sns_params(), min_size=1, max_size=12), loss_bins())
def test_batched_pooled_statistics_rows_are_bit_identical(candidates, bins):
    arms, pulses = bins
    ch = ChannelModel()
    shared = pooled_statistics(ch, candidates, arms, pulses)
    per_row = pooled_statistics(
        ch, candidates, np.stack([arms] * len(candidates)), np.stack([pulses] * len(candidates))
    )
    for i, params in enumerate(candidates):
        one = pooled_statistics(ch, params, arms, pulses)
        assert_same_statistics(shared[i], one)
        assert_same_statistics(per_row[i], one)


def test_pooled_statistics_rejects_misaligned_bins():
    ch = ChannelModel()
    with pytest.raises(ValueError):
        pooled_statistics(ch, SnsParams(), np.full((2, 2), 1e-4), np.array([1e8]))
    with pytest.raises(ValueError):
        pooled_statistics(ch, [SnsParams()] * 3, np.ones((2, 4, 2)) * 1e-4, np.ones((2, 4)))
    with pytest.raises(ValueError):  # total efficiencies, not arm pairs
        pooled_statistics(ch, SnsParams(), np.array([1e-4, 1e-5]), np.array([1e8, 2e8]))


def _reference_search(objective, start, max_evals):
    """The one-candidate-at-a-time coordinate search the lockstep driver replaced."""
    best_p = start
    best_v = objective(start)
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
                val = objective(params)
                evals += 1
                if val > best_v:
                    best_v, best_p = val, params
                    vec = _params_to_vector(best_p)
                    improved = True
        if not improved:
            step = 1.0 + (step - 1.0) * 0.5
    return best_p, best_v


def _reference_optimize(channel, eps, arms, pulses, n_starts, max_evals, extra_seeds=()):
    def objective(params):
        return skl(pooled_statistics(channel, params, arms, pulses), eps).skl_bits

    scored = [(objective(p), i, p) for i, p in enumerate(DEFAULT_GRID)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    best_v, _, best_p = scored[0]
    seeds = [best_p, *extra_seeds, DEFAULT_PARAMS, scored[1][2]]
    seeds = seeds[: max(n_starts, 1 + len(extra_seeds))]
    for seed in seeds:
        p, v = _reference_search(objective, seed, max_evals)
        if v > best_v:
            best_v, best_p = v, p
    return best_p, skl(pooled_statistics(channel, best_p, arms, pulses), eps)


@st.composite
def link_profile(draw):
    """accumulate_link profile of 1-4 bins between 20 and 60 dB."""
    n = draw(st.integers(1, 4))
    asymmetric = draw(st.booleans())
    loss = st.floats(20.0, 60.0)
    profile = []
    for _ in range(n):
        if asymmetric:
            arms = (10.0 ** (-draw(loss) / 10.0), 10.0 ** (-draw(loss) / 10.0))
        else:
            arms = symmetric_arms(10.0 ** (-draw(loss) / 10.0))
        profile.append((arms, draw(st.floats(1e9, 1e12))))
    return profile


@settings(max_examples=25, deadline=None)
@given(
    st.lists(link_profile(), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 80),
)
def test_lockstep_optimiser_matches_sequential_reference(profiles, n_starts, max_evals):
    ch = ChannelModel()
    together = accumulate_links(profiles, ch, EPS, n_starts=n_starts, max_evals=max_evals)
    for profile, got in zip(profiles, together):
        arms = np.array([b[0] for b in profile])
        pulses = np.array([b[1] for b in profile])
        assert got == _reference_optimize(ch, EPS, arms, pulses, n_starts, max_evals)
        assert accumulate_link(profile, ch, EPS, n_starts=n_starts, max_evals=max_evals) == got


def large_profile(seed, n_bins):
    """Asymmetric profile of ``n_bins`` bins, arms within 3 dB of each other, 20-40 dB."""
    rng = np.random.default_rng(seed)
    loss_a = rng.uniform(20.0, 40.0, n_bins)
    loss_b = loss_a + rng.uniform(-3.0, 3.0, n_bins)
    arms = 10.0 ** (-np.stack([loss_a, loss_b], axis=1) / 10.0)
    pulses = rng.uniform(1e7, 1e9, n_bins)
    return list(zip(map(tuple, arms.tolist()), pulses.tolist()))


# one candidate a call, through each block's kernel memo
LARGE = _BATCH_CELLS // 2 + 1


@settings(max_examples=4, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
    st.integers(LARGE, LARGE + 251),
    link_profile(),
    st.integers(1, 3),
    st.integers(1, 30),
)
def test_lockstep_optimiser_matches_reference_on_large_blocks(
    seeds, n_bins, small, n_starts, max_evals
):
    ch = ChannelModel()
    profiles = [large_profile(seed, n_bins) for seed in seeds] + [small]
    together = accumulate_links(profiles, ch, EPS, n_starts=n_starts, max_evals=max_evals)
    for profile, got in zip(profiles, together):
        arms = np.array([b[0] for b in profile])
        pulses = np.array([b[1] for b in profile])
        assert got == _reference_optimize(ch, EPS, arms, pulses, n_starts, max_evals)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(keyrate, name)
    monkeypatch.setattr(keyrate, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_kernel_memo_skips_recomputing_unchanged_kernels(monkeypatch):
    ch = ChannelModel()
    profile = large_profile(7, LARGE)
    block = (np.array([b[0] for b in profile]), np.array([b[1] for b in profile]))
    base = SnsParams()
    candidates = [base, SnsParams(p_send=0.1), SnsParams(p_z=0.6), SnsParams(p0=0.4),
                  SnsParams(p1=0.2), SnsParams(p_send=0.2, p_z=0.5, p0=0.3, p1=0.4)]
    want = [skl(pooled_statistics(ch, p, *block), EPS) for p in candidates]
    calls = {name: count_calls(monkeypatch, name)
             for name in ("_z_clicks", "_x_clicks", "_slice_clicks")}
    memos, kernels = [{}], [_KernelMemo()]
    _evaluate(ch, EPS, [block], memos, kernels, [(0, p) for p in candidates])
    assert [memos[0][p] for p in candidates] == want
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    assert kernels[0].hits == dict.fromkeys(_KERNEL_CAPS, len(candidates) - 1)
    # a batched block of a few bins computes its kernels inline
    small = (block[0][:3], block[1][:3])
    _evaluate(ch, EPS, [small], [{}], kernels, [(0, p) for p in candidates])
    assert len(calls["_slice_clicks"]) == 2
    assert kernels[0].misses == dict.fromkeys(_KERNEL_CAPS, 1)


def test_kernel_memo_stays_within_its_caps(monkeypatch):
    made = []

    class Recorded(_KernelMemo):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(keyrate, "_KernelMemo", Recorded)
    profiles = [large_profile(3, LARGE), large_profile(4, LARGE + 10), [((1e-3, 1e-3), 1e12)]]
    accumulate_links(profiles, ChannelModel(), EPS, max_evals=120)
    assert len(made) == len(profiles)
    for memo in made[:2]:
        assert memo.misses["slice"] > _KERNEL_CAPS["slice"]  # the cap was reached
        for kind, cache in memo.caches.items():
            assert len(cache) <= _KERNEL_CAPS[kind]


def test_optimiser_logs_one_debug_line_per_call(caplog, capsys):
    profiles = [large_profile(5, LARGE), [((1e-3, 1e-3), 1e12)]]
    accumulate_links(profiles, ChannelModel(), EPS, max_evals=20)
    assert capsys.readouterr() == ("", "")
    with caplog.at_level("DEBUG", logger="ringqkd.keyrate"):
        accumulate_links(profiles, ChannelModel(), EPS, max_evals=20)
    (record,) = caplog.records
    assert record.getMessage().startswith("optimised 2 blocks in ")
    assert "kernel memo hits/misses: z " in record.getMessage()
