"""Relay tests: forwarding algebra, adversary oracle, minimum compromise."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringqkd.constants import ATM_SHELL_KM, EARTH_RADIUS_KM
from ringqkd.geometry import (
    ConstellationKind,
    ConstellationSpec,
    clearance_segment_km,
    positions_eci_km,
)
from ringqkd.linkbudget import OpticalParams, isl_efficiency, to_db
from ringqkd.relay import (
    GS1,
    GS2,
    CompromiseScenario,
    MinCompromiseResult,
    build_paths,
    adversary_can_recover,
    crossing_keys,
    feasible_neighbor_range,
    forward,
    generate_link_keys,
    key_nodes,
    min_compromise,
    recover,
    segment_keys,
)


def closed_form_message(path, ring, segment, cut, x, keys):
    # independent oracle: message after slot `cut` is x XOR all keys whose
    # slot pair straddles the cut
    v = x
    for kid in crossing_keys(path, ring, segment, cut):
        v ^= keys[kid]
    return v


# ------------------------------------------------------------------- topology


def test_segment_walks_modular():
    p = build_paths(12, 0, 6)
    assert p.walks["plus"] == (GS1, 0, 1, 2, 3, 4, 5, 6, GS2)
    assert p.walks["minus"] == (GS1, 0, 11, 10, 9, 8, 7, 6, GS2)


def test_segment_interiors_disjoint_small():
    p = build_paths(4, 0, 2)
    assert p.walks["plus"] == (GS1, 0, 1, 2, GS2)
    assert p.walks["minus"] == (GS1, 0, 3, 2, GS2)
    inner_plus = set(p.walks["plus"][2:-2])
    inner_minus = set(p.walks["minus"][2:-2])
    assert inner_plus == {1} and inner_minus == {3}


def test_build_paths_validation():
    with pytest.raises(ValueError):
        build_paths(12, 3, 3)
    with pytest.raises(ValueError):
        build_paths(12, 0, 6, r=1)
    with pytest.raises(ValueError):
        build_paths(12, 0, 1, r=5)  # plus segment has only two satellites


def test_key_set_matches_hand_enumeration():
    # r=2, N=12, i=0, k=6: plus segment holds two point-to-point keys and
    # the twin-field chain GS1-S1, S0-S2, ..., S4-S6, S5-GS2
    p = build_paths(12, 0, 6)
    keys = segment_keys(p, 0, "plus")
    p2p = [k for k in keys if k[2] == "p2p"]
    tf = [k for k in keys if k[2] == "tf"]
    assert [key_nodes(p, k) for k in p2p] == [(GS1, 0), (6, GS2)]
    assert [key_nodes(p, k) for k in tf] == [
        (GS1, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, GS2),
    ]
    assert len(tf) == 7  # k - i + 1


def test_key_count_small_ring():
    p = build_paths(4, 0, 2)
    for seg in ("plus", "minus"):
        keys = segment_keys(p, 0, seg)
        assert sum(1 for k in keys if k[2] == "p2p") == 2
        assert sum(1 for k in keys if k[2] == "tf") == 3


def test_generated_keys_deterministic_and_fresh_per_segment():
    p = build_paths(12, 0, 6)
    a = generate_link_keys(p, 64, seed=5)
    b = generate_link_keys(p, 64, seed=5)
    assert a == b
    assert generate_link_keys(p, 64, seed=6) != a
    # plus and minus segments never share key identities
    plus_ids = set(segment_keys(p, 0, "plus"))
    minus_ids = set(segment_keys(p, 0, "minus"))
    assert plus_ids.isdisjoint(minus_ids)


# ----------------------------------------------------------------- forwarding


def test_all_zero_keys_pass_secret_through():
    p = build_paths(12, 0, 6)
    keys = {kid: 0 for kid in generate_link_keys(p, 8, 0)}
    tr = forward(p, "plus", 0xAB, keys)
    assert all(v == 0xAB for _, v in tr.messages)


def test_zero_secret_exposes_mask_only():
    p = build_paths(6, 0, 3)
    keys = generate_link_keys(p, 32, 1)
    tr = forward(p, "plus", 0, keys)
    for cut, (_, v) in enumerate(tr.messages):
        mask = closed_form_message(p, 0, "plus", cut, 0, keys)
        assert v == mask


def test_transcript_matches_symbolic_closed_form():
    p = build_paths(6, 0, 3)
    keys = generate_link_keys(p, 48, 9)
    x = random.Random(3).getrandbits(48)
    for seg in ("plus", "minus"):
        tr = forward(p, seg, x, keys)
        for cut, (sender, v) in enumerate(tr.messages):
            assert v == closed_form_message(p, 0, seg, cut, x, keys)


def test_roundtrip_randomized():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randrange(4, 25)
        i = rng.randrange(n)
        k = (i + rng.randrange(1, n)) % n
        if i == k:
            continue
        key_len = rng.randrange(1, 257)
        p = build_paths(n, i, k)
        keys = generate_link_keys(p, key_len, rng.randrange(1 << 30))
        xp = rng.getrandbits(key_len)
        xm = rng.getrandbits(key_len)
        tp = forward(p, "plus", xp, keys)
        tm = forward(p, "minus", xm, keys)
        assert recover(p, tp, keys) == xp
        assert recover(p, tm, keys) == xm
        # ring key consistent at both ends
        assert (xp ^ xm) == (recover(p, tp, keys) ^ recover(p, tm, keys))


def test_flipped_bit_propagates_linearly():
    p = build_paths(8, 1, 5)
    keys = generate_link_keys(p, 16, 7)
    x = 0x1234
    tr = forward(p, "plus", x, keys)
    tampered = list(tr.messages)
    sender, v = tampered[-1]
    tampered[-1] = (sender, v ^ 0x0040)
    from ringqkd.relay import ForwardTranscript

    bad = ForwardTranscript(0, "plus", tuple(tampered))
    assert recover(p, bad, keys) == x ^ 0x0040


def test_forward_missing_key_raises():
    p = build_paths(6, 0, 3)
    keys = generate_link_keys(p, 8, 0)
    kid = next(iter(keys))
    del keys[kid]
    with pytest.raises(KeyError):
        forward(p, kid[1], 1, keys)


def test_interior_masks_symbolic_identity():
    # symbolic check, no key values: the message leaving interior node j is
    # masked by exactly the keys (j-1, j+1) and (j, j+2) in ring labels
    p = build_paths(12, 0, 6)
    walk = p.walks["plus"]
    for cut in range(2, len(walk) - 2):  # cuts after interior satellites
        kids = crossing_keys(p, 0, "plus", cut)
        pairs = sorted((k[3], k[4]) for k in kids)
        assert pairs == [(cut - 1, cut + 1), (cut, cut + 2)]
        assert all(k[2] == "tf" for k in kids)


def test_generalized_range_roundtrip():
    rng = random.Random(77)
    for r in (3, 4):
        p = build_paths(12, 0, 6, r=r)
        keys = generate_link_keys(p, 64, 42 + r)
        x = rng.getrandbits(64)
        tr = forward(p, "plus", x, keys)
        assert recover(p, tr, keys) == x
        for cut, (_, v) in enumerate(tr.messages):
            assert v == closed_form_message(p, 0, "plus", cut, x, keys)


# --------------------------------------------------------------------- oracle


def scenario(*sats):
    return CompromiseScenario(frozenset(sats))


def test_empty_compromise_recovers_nothing():
    p = build_paths(12, 0, 6)
    ok, witness = adversary_can_recover(p, scenario())
    assert not ok and witness == []


def test_paper_consecutive_pairs_break_both_segments():
    p = build_paths(12, 0, 6)
    ok, witness = adversary_can_recover(p, scenario(2, 3, 9, 10))
    assert ok
    # the combining subset a from-scratch elimination reports: the messages
    # after S1 and S11, unmasked by the keys crossing those cuts
    assert witness == [
        ("message", 0, "plus", 1),
        ("message", 0, "minus", 11),
        ("key", (0, "plus", "tf", 1, 3)),
        ("key", (0, "plus", "tf", 2, 4)),
        ("key", (0, "minus", "tf", 2, 4)),
        ("key", (0, "minus", "tf", 1, 3)),
    ]


def test_paper_attachment_three_node_break():
    p = build_paths(12, 0, 6)
    ok, _ = adversary_can_recover(p, scenario(0, 1, 11))
    assert ok


def test_single_segment_pair_breaks_only_that_segment():
    p = build_paths(12, 0, 6)
    ok_plus, _ = adversary_can_recover(p, scenario(2, 3), target="plus")
    ok_minus, _ = adversary_can_recover(p, scenario(2, 3), target="minus")
    ok_ring, _ = adversary_can_recover(p, scenario(2, 3), target="ring")
    assert ok_plus and not ok_minus and not ok_ring


def test_no_single_intermediate_exposure():
    # no single non-attachment satellite ever reaches either segment secret
    p = build_paths(10, 0, 5)
    for s in range(10):
        if s in (0, 5):
            continue
        for target in ("plus", "minus"):
            ok, _ = adversary_can_recover(p, scenario(s), target=target)
            assert not ok


def test_two_node_segment_breakers_characterised():
    # Exhaustive sweep: with r=2 a two-node set unmasks a segment secret
    # exactly when the nodes sit at ODD segment distance.  Consecutive
    # pairs (distance 1) hold the two masks of the cut between them; an
    # XOR of an odd run of consecutive messages telescopes to the two end
    # masks, which any odd-distance pair owns.  The published analysis
    # only mentions the consecutive case; the odd-distance family is
    # strictly larger at the segment level.  At N=12 it leaves the
    # ring-level minima unchanged, but the attachment pair sits at odd
    # distance on both segments when N/2 is odd and then breaks the ring
    # alone (see the floor tests below).
    p = build_paths(12, 0, 6)
    inner = [n for n in p.walks["plus"] if isinstance(n, int)]
    pos = {n: idx for idx, n in enumerate(inner)}
    for combo in itertools.combinations(range(12), 2):
        ok, _ = adversary_can_recover(p, scenario(*combo), target="plus")
        a, b = combo
        if a in pos and b in pos:
            want = (pos[a] - pos[b]) % 2 == 1
        else:
            want = False
        assert ok == want, combo


def test_ring_needs_two_breaker_pairs_exhaustive():
    # every subset of size <= 4 that recovers the ring secret must contain
    # a breaker pair for BOTH segments
    p = build_paths(12, 0, 6)

    def segment_broken(sats, target):
        ok, _ = adversary_can_recover(p, CompromiseScenario(frozenset(sats)), target=target)
        return ok

    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(range(12), size):
            ok, _ = adversary_can_recover(p, scenario(*combo))
            if ok:
                assert segment_broken(combo, "plus") and segment_broken(combo, "minus")


def test_security_floor_exhaustive_small_rings():
    # Exhaustive two- and three-node sweeps.  When the attachment
    # separation N/2 is even (N = 8, 12) no two-node set recovers the ring.
    # When N/2 is odd (N = 6, 10) the pair of attachment satellites sits at
    # odd distance on BOTH segments and is the unique two-node breaker: a
    # gap in the published analysis, which only treats single-attachment
    # compromise.  Three nodes avoiding the attachments always fail.
    for n in (6, 8, 10, 12):
        p = build_paths(n, 0, n // 2)
        att = {0, n // 2}
        two_breakers = [
            combo
            for combo in itertools.combinations(range(n), 2)
            if adversary_can_recover(p, scenario(*combo))[0]
        ]
        if (n // 2) % 2 == 1:
            assert two_breakers == [(0, n // 2)]
        else:
            assert two_breakers == []
        others = [s for s in range(n) if s not in att]
        for combo in itertools.combinations(others, 3):
            ok, _ = adversary_can_recover(p, scenario(*combo))
            assert not ok


def test_min_compromise_thresholds_r2():
    p = build_paths(12, 0, 6)
    with_att = min_compromise(p, allow_attachments=True)
    assert with_att.exact and with_att.size == 3
    without = min_compromise(p, allow_attachments=False)
    assert without.exact and without.size == 4
    # reported example is the lexicographically smallest minimal set:
    # (0, 1) covers the plus segment and 7 sits at odd distance from 0 on
    # the minus segment
    assert with_att.example == (0, 1, 7)
    ok, _ = adversary_can_recover(p, scenario(*without.example))
    assert ok


@pytest.mark.parametrize("n", [8, 12, 15])
@pytest.mark.parametrize("r", [2, 3])
def test_generalized_thresholds(n, r):
    k = n // 2
    p = build_paths(n, 0, k, r=r)
    per_seg = min_compromise(p, allow_attachments=True, target="plus")
    assert per_seg.exact and per_seg.size == r
    worst = min_compromise(p, allow_attachments=True, target="ring")
    assert worst.exact and worst.size == 2 * r - 1
    clean = min_compromise(p, allow_attachments=False, target="ring")
    assert clean.exact and clean.size == 2 * r


def test_two_rings_double_the_minimum():
    p2 = build_paths(8, 0, 4, r=2, n_rings=2)
    res = min_compromise(p2, allow_attachments=True)
    assert res.exact and res.size == 2 * 3
    # oracle check on the joint system: per-ring example works, and no
    # smaller joint set does at the sizes around the threshold
    ok, _ = adversary_can_recover(p2, CompromiseScenario(frozenset(res.example)))
    assert ok


def test_two_rings_joint_enumeration_small():
    # exhaustive joint check on a small two-ring instance: nothing of size
    # five works, and the doubled per-ring example of size six does
    p2 = build_paths(8, 0, 4, r=2, n_rings=2)
    items = [(ring, sat) for ring in range(2) for sat in range(8)]
    for combo in itertools.combinations(items, 5):
        ok, _ = adversary_can_recover(p2, CompromiseScenario(frozenset(combo)))
        assert not ok
    res = min_compromise(p2)
    assert res.exact and res.size == 6


def test_ring_recovery_requires_every_ring():
    p2 = build_paths(8, 0, 4, n_rings=2)
    # breaking ring 0 completely while leaving ring 1 intact is not enough
    only_ring0 = CompromiseScenario(frozenset((0, s) for s in (0, 1, 7)))
    ok, _ = adversary_can_recover(p2, only_ring0)
    assert not ok
    both = CompromiseScenario(frozenset((r, s) for r in (0, 1) for s in (0, 1, 7)))
    ok, _ = adversary_can_recover(p2, both)
    assert ok


def test_scenario_rejects_bad_indices():
    p = build_paths(6, 0, 3)
    with pytest.raises(ValueError):
        adversary_can_recover(p, scenario(99))


# ------------------------------------------------------------ neighbour range


def test_feasible_range_thresholds():
    # 45 dB budget with the baseline optics: range 3 opens at 25 sats,
    # range 4 at 37, range 5 at 49
    assert feasible_neighbor_range(25, 45.0) >= 3
    assert feasible_neighbor_range(37, 45.0) >= 4
    assert feasible_neighbor_range(49, 45.0) >= 5
    assert feasible_neighbor_range(24, 45.0) == 2
    assert feasible_neighbor_range(36, 45.0) == 3
    assert feasible_neighbor_range(48, 45.0) == 4


def test_feasible_range_monotone_in_budget():
    assert feasible_neighbor_range(30, 50.0) >= feasible_neighbor_range(30, 42.0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 100), budget=st.floats(30.0, 60.0))
def test_feasible_range_matches_chord_oracle(n, budget):
    # independent oracle: propagated positions of a 500 km Type-2 ring, each
    # arm's segment clearance and its ISL loss without pointing
    r = feasible_neighbor_range(n, budget)
    spec = ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, n, 500.0)
    pos = positions_eci_km(spec, [0.0])[0]
    shell_km = EARTH_RADIUS_KM + ATM_SHELL_KM

    def arm_ok(arm):
        clearance_km = float(clearance_segment_km(pos[0], pos[arm]))
        chord_m = float(np.linalg.norm(pos[arm] - pos[0])) * 1e3
        loss = float(to_db(isl_efficiency(chord_m, OpticalParams(), include_pointing=False)))
        assume(abs(clearance_km - shell_km) > 1e-9 and abs(loss - budget) > 1e-9)
        return clearance_km > shell_km and loss <= budget

    assert all(arm_ok(arm) for arm in range(1, r))
    assert r >= n / 2 or not arm_ok(r)


def test_min_compromise_budget_bracket():
    # the budget runs out in the third of the four attachment choices, after
    # the choice of attachment 0 alone has certified (0, 1, 7)
    p = build_paths(12, 0, 6)
    res = min_compromise(p, max_evals=20)
    assert not res.exact and res.size is None
    assert res.lower >= 1
    assert res.upper == 3 and res.example == (0, 1, 7)
    full = min_compromise(p)
    assert res.lower <= full.size <= res.upper


# ------------------------------------------------- independent oracle checks


@st.composite
def ring_paths(draw):
    """A path over n 4-16, r 2-3 and 1-2 rings that ``build_paths`` accepts."""
    n = draw(st.integers(4, 16))
    i = draw(st.integers(0, n - 1))
    k = (i + draw(st.integers(1, n - 1))) % n
    r = draw(st.integers(2, 3))
    n_rings = draw(st.integers(1, 2))
    try:
        return build_paths(n, i, k, r=r, n_rings=n_rings)
    except ValueError:
        assume(False)


@st.composite
def compromise(draw, path):
    """Plain satellite indices, and on several rings also (ring, index) pairs."""
    sats = st.integers(0, path.n_sats - 1)
    items = draw(st.sets(sats, max_size=path.n_sats))
    if path.n_rings > 1:
        items |= draw(st.sets(st.tuples(st.integers(0, path.n_rings - 1), sats), max_size=6))
    return CompromiseScenario(frozenset(items))


TARGETS = st.sampled_from(["ring", "plus", "minus"])


def gf2_rank(matrix):
    m = matrix.copy()
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        m[[rank, rank + rows[0]]] = m[[rank + rows[0], rank]]
        others = np.nonzero(m[:, col])[0]
        m[others[others != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def rank_decision(path, scen, target):
    """Recoverability as rank([rows; target]) == rank(rows) over GF(2).

    Symbols: every key of every segment, then one secret per segment.
    Rows: each public message (its secret plus the keys crossing its cut)
    and each key a compromised satellite of that ring holds.
    """
    segs = [(ring, seg) for ring in range(path.n_rings) for seg in ("plus", "minus")]
    keys = [kid for ring, seg in segs for kid in segment_keys(path, ring, seg)]
    col = {kid: c for c, kid in enumerate(keys)}
    col.update({s: len(keys) + c for c, s in enumerate(segs)})
    per_ring = scen.per_ring(path.n_rings)
    rows = []
    for ring, seg in segs:
        for cut in range(len(path.walks[seg]) - 1):
            rows.append([(ring, seg)] + crossing_keys(path, ring, seg, cut))
    for kid in keys:
        if per_ring[kid[0]] & set(key_nodes(path, kid)):
            rows.append([kid])
    if target == "ring":
        want = segs
    else:
        want = [(0, target)]
    matrix = np.zeros((len(rows) + 1, len(col)), dtype=np.uint8)
    for r, items in enumerate(rows + [want]):
        for item in items:
            matrix[r, col[item]] ^= 1
    return gf2_rank(matrix) == gf2_rank(matrix[:-1])


def replay_witness(path, scen, target, witness, seed):
    """XOR of the witness items on real keys and transcripts; None if it
    uses a key no compromised satellite of that ring holds."""
    keys = generate_link_keys(path, 64, seed)
    rng = random.Random(seed)
    secrets, sent = {}, {}
    for ring in range(path.n_rings):
        for seg in ("plus", "minus"):
            secrets[(ring, seg)] = rng.getrandbits(64)
            for node, value in forward(path, seg, secrets[(ring, seg)], keys, ring=ring).messages:
                sent[(ring, seg, node)] = value
    per_ring = scen.per_ring(path.n_rings)
    acc = 0
    for item in witness:
        if item[0] == "message":
            acc ^= sent[item[1:]]
        else:
            kid = item[1]
            if not per_ring[kid[0]] & set(key_nodes(path, kid)):
                return None, 0
            acc ^= keys[kid]
    want = 0
    for (ring, seg), x in secrets.items():
        if target == "ring" or (ring, seg) == (0, target):
            want ^= x
    return acc, want


@settings(max_examples=150, deadline=None)
@given(st.data(), ring_paths(), TARGETS, st.integers(0, 1 << 30))
def test_oracle_agrees_with_rank_and_witness_replays(data, path, target, seed):
    scen = data.draw(compromise(path))
    ok, witness = adversary_can_recover(path, scen, target)
    assert ok == rank_decision(path, scen, target)
    if ok:
        got, want = replay_witness(path, scen, target, witness, seed)
        assert got == want
    else:
        assert witness == []


def joint_elimination(path, scen, target):
    """Witness of a from-scratch elimination over each ring's whole system.

    Symbols: the ring's plus keys, its minus keys, then the plus and minus
    secrets.  Rows, in order: the plus messages, the minus messages, then
    each compromised satellite's keys (ascending satellite, plus keys before
    minus keys, in key order).  Each row is reduced against the pivots in
    insertion order and kept, keyed by its lowest bit, with the mask of the
    rows it combines.  A segment target concerns ring 0 alone.
    """
    per_ring = scen.per_ring(path.n_rings)
    witness = []
    for ring in range(path.n_rings if target == "ring" else 1):
        keys = segment_keys(path, ring, "plus") + segment_keys(path, ring, "minus")
        bit = {kid: 1 << i for i, kid in enumerate(keys)}
        secret = {"plus": 1 << len(keys), "minus": 1 << (len(keys) + 1)}
        rows, labels = [], []
        for seg in ("plus", "minus"):
            walk = path.walks[seg]
            for cut in range(len(walk) - 1):
                vec = secret[seg]
                for kid in crossing_keys(path, ring, seg, cut):
                    vec ^= bit[kid]
                rows.append(vec)
                labels.append(("message", ring, seg, walk[cut]))
        for sat in sorted(per_ring[ring]):
            for kid in keys:
                if sat in key_nodes(path, kid):
                    rows.append(bit[kid])
                    labels.append(("key", kid))
        pivots = []  # (lowest bit, vector, row mask) in insertion order

        def reduce(vec, mask):
            for low, pvec, pmask in pivots:
                if vec & low:
                    vec, mask = vec ^ pvec, mask ^ pmask
            return vec, mask

        for j, row in enumerate(rows):
            vec, mask = reduce(row, 1 << j)
            if vec:
                pivots.append((vec & -vec, vec, mask))
        want = secret["plus"] ^ secret["minus"] if target == "ring" else secret[target]
        vec, mask = reduce(want, 0)
        if vec:
            return False, []
        witness += [label for j, label in enumerate(labels) if mask >> j & 1]
    return True, witness


@settings(max_examples=150, deadline=None)
@given(st.data(), ring_paths(), TARGETS)
def test_witness_is_that_of_a_joint_elimination(data, path, target):
    scen = data.draw(compromise(path))
    assert adversary_can_recover(path, scen, target) == joint_elimination(path, scen, target)


def reference_min_compromise(path, allow_attachments, target):
    """Exhaustive search over the satellites of one ring: one oracle call per
    subset, in ``itertools.combinations`` order.  A segment target concerns
    ring 0 alone; the ring target needs the per-ring set on every ring."""
    single = build_paths(path.n_sats, path.attach_a, path.attach_b, path.neighbor_range)

    def recovers(sats):
        return adversary_can_recover(single, CompromiseScenario(frozenset(sats)), target)[0]

    rings = path.n_rings if target == "ring" else 1
    candidates = [
        s for s in range(path.n_sats)
        if allow_attachments or s not in (path.attach_a, path.attach_b)
    ]
    if not recovers(candidates):  # knowledge only grows with the set
        lower = (len(candidates) + 1) * rings
        return MinCompromiseResult(True, None, (), lower, None)
    for size in itertools.count(1):
        for combo in itertools.combinations(candidates, size):
            if recovers(combo):
                example = combo if path.n_rings == 1 else tuple(
                    (ring, sat) for ring in range(rings) for sat in combo
                )
                total = size * rings
                return MinCompromiseResult(True, total, example, total, total)


@settings(max_examples=80, deadline=None)
@given(ring_paths(), st.booleans(), TARGETS)
def test_min_compromise_matches_sequential_reference(path, allow_attachments, target):
    got = min_compromise(path, allow_attachments, target, max_evals=10**9)
    assert got == reference_min_compromise(path, allow_attachments, target)


@settings(max_examples=40, deadline=None)
@given(ring_paths(), st.booleans(), TARGETS)
def test_min_compromise_budget_gives_exact_answer_or_bracket(path, allow_attachments, target):
    exact = min_compromise(path, allow_attachments, target)
    for budget in range(1, 301):
        got = min_compromise(path, allow_attachments, target, max_evals=budget)
        if got.exact:
            assert got == exact
            continue
        assert got.size is None and got.lower <= exact.lower
        if exact.size is None:
            assert got.upper is None and got.example == ()
        elif got.upper is None:
            assert got.example == ()
        else:
            assert exact.size <= got.upper == len(got.example)
            scen = CompromiseScenario(frozenset(got.example))
            assert adversary_can_recover(path, scen, target)[0]


def brute_force_minimum(path, allow_attachments, target):
    """Smallest (ring, satellite) sets that recover the target, by size."""
    items = [
        (ring, sat)
        for ring in range(path.n_rings)
        for sat in range(path.n_sats)
        if allow_attachments or sat not in (path.attach_a, path.attach_b)
    ]
    for size in range(len(items) + 1):
        hits = [
            combo for combo in itertools.combinations(items, size)
            if adversary_can_recover(path, CompromiseScenario(frozenset(combo)), target)[0]
        ]
        if hits:
            return size, hits
    return None, []


@pytest.mark.parametrize("n_rings", [1, 2])
@pytest.mark.parametrize("target", ["ring", "plus", "minus"])
def test_min_compromise_matches_joint_brute_force(n_rings, target):
    # every path with n <= 8 on a single ring; a sample of them on two rings,
    # where the joint search over (ring, satellite) sets is costlier
    cases = [(n, 0, k, r) for n in range(4, 9) for k in range(1, n) for r in (2, 3)]
    if n_rings == 2:
        cases = [(4, 0, 2, 2), (5, 0, 1, 2), (6, 0, 3, 2), (7, 0, 3, 3), (8, 0, 4, 2), (8, 0, 3, 3)]
    for n, i, k, r in cases:
        try:
            path = build_paths(n, i, k, r=r, n_rings=n_rings)
        except ValueError:
            continue
        for allow in (True, False):
            res = min_compromise(path, allow, target)
            size, hits = brute_force_minimum(path, allow, target)
            assert res.size == size, (n, k, r, allow)
            if size is not None:
                tagged = res.example if n_rings > 1 else tuple((0, s) for s in res.example)
                assert tuple(sorted(tagged)) in hits, (n, k, r, allow)


def test_segment_target_counts_ring_zero_only():
    # ring 1 holds no part of the ring-0 segment secret
    path = build_paths(12, 0, 6, r=2, n_rings=2)
    res = min_compromise(path, target="plus")
    assert res == MinCompromiseResult(True, 2, ((0, 0), (0, 1)), 2, 2)
    assert adversary_can_recover(path, CompromiseScenario(frozenset(res.example)), "plus")[0]


def test_min_compromise_n24_r3():
    res = min_compromise(build_paths(24, 0, 12, r=3))
    assert res == MinCompromiseResult(True, 5, (0, 1, 2, 22, 23), 5, 5)


def test_min_compromise_n30_r4():
    path = build_paths(30, 0, 15, r=4)
    assert min_compromise(path) == MinCompromiseResult(True, 7, (0, 1, 2, 3, 27, 28, 29), 7, 7)
    assert min_compromise(path, allow_attachments=False) == MinCompromiseResult(
        True, 8, (1, 2, 3, 4, 16, 17, 18, 19), 8, 8
    )
