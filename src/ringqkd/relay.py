"""Redundant XOR key forwarding over the satellite ring and its security oracle.

The ring between the two ground-station attachment satellites splits into two
directed segments (clockwise "plus", counterclockwise "minus").  Along each
segment every pair of nodes at ring distance 2..r shares a twin-field key and
each ground station shares a point-to-point key with its attachment
satellite.  Alice masks an n-bit secret with all keys she holds and each node
in turn XORs in every key it holds, so the message after node j always equals

    X  XOR  (all keys crossing the cut between j and j+1),

and Bob's final XOR recovers X.  Each segment uses fresh independent keys;
the end-to-end secret is X_ring = X_plus XOR X_minus (XORed across rings when
several independent rings run in parallel).

Adversary model: every forwarded message is public, a compromised satellite
reveals every key it holds, and ground stations are never compromised.  Keys
are independent uniform strings, so "the adversary can reconstruct the
secret" is exactly a linear-algebra question over GF(2) with one symbol per
key and per segment secret, independent of the key length.

No two segments share a key symbol, so the adversary's knowledge is the
direct sum of the segment systems: X_plus XOR X_minus is recoverable exactly
when X_plus and X_minus both are, and each segment is decided on its own
rows.  Only the attachment satellites hold keys of both segments of a ring.
Each (ring, segment) therefore gets one table, built on first use and cached
per path value: its key identities, the keys at each slot and crossing each
cut (forwarding and recovery read these), its message rows reduced to
echelon form once, each satellite's key rows and the secret's bit.

``adversary_can_recover`` extends a copy of each segment's basis by the
compromised satellites' rows, in the order a from-scratch elimination over
the whole ring would add them, and lists the witness in that elimination's
row order, so its answer and witness are those of the joint elimination.
``min_compromise`` fixes each set A of compromised attachments and searches
each segment's interior satellites on its own, from that segment's basis
extended by A's rows; the ring minimum is the least
|A| + m_plus(A) + m_minus(A).  Each segment search walks the subsets
depth-first in size then lexicographic order; each satellite added extends
a copy of its prefix's basis, so a subset costs the reduction of one
satellite's rows.  Its budget counts the subsets tested over all segment
searches.

Parity at r = 2: every twin-field key joins slots of the same parity, so a
segment's keys form two separate chains, and the public messages telescope
along them (m_(j-1) XOR m_j = tf(j-2, j) XOR tf(j, j+2)).  Two satellites at
odd segment distance therefore hold both end masks of an odd run of
consecutive messages and unmask that segment.  When both attachment
separations are odd (antipodal attachments with N = 2 mod 4) the two
attachments alone recover the ring secret, one below the 2r - 1 = 3 floor
that holds otherwise.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from .constants import ATM_SHELL_KM, EARTH_RADIUS_KM, ORBIT_ALTITUDE_KM

GS1 = "GS1"
GS2 = "GS2"
NEIGHBOR_RANGE = 2  # the default neighbour range r of build_paths
_TARGETS = ("ring", "plus", "minus")


@dataclass(frozen=True)
class CompromiseScenario:
    """Set of compromised satellites, as indices or (ring, index) pairs."""

    compromised: frozenset

    def per_ring(self, n_rings: int) -> dict[int, frozenset]:
        plain = set()
        tagged: dict[int, set] = {r: set() for r in range(n_rings)}
        for item in self.compromised:
            if isinstance(item, tuple):
                ring, sat = item
                if ring not in tagged:
                    raise ValueError(f"ring index out of range: {ring}")
                tagged[ring].add(sat)
            else:
                plain.add(item)
        return {r: frozenset(tagged[r] | plain) for r in range(n_rings)}


@dataclass(frozen=True)
class RingPath:
    """Both forwarding segments of one (or several stacked) rings."""

    n_sats: int
    attach_a: int
    attach_b: int
    neighbor_range: int
    n_rings: int
    walks: dict = field(compare=False)  # "plus" or "minus" -> segment walk, shared by all rings


def build_paths(n_sats: int, i: int, k: int, r: int = NEIGHBOR_RANGE, n_rings: int = 1) -> RingPath:
    """Construct the two directed segments GS1 -> S_i -> ... -> S_k -> GS2."""
    if n_sats < 3:
        raise ValueError("need at least three satellites")
    if not (0 <= i < n_sats and 0 <= k < n_sats):
        raise ValueError("attachment indices out of range")
    if i == k:
        raise ValueError("attachment satellites must differ")
    if n_rings < 1:
        raise ValueError("n_rings must be >= 1")
    plus_sats = [(i + s) % n_sats for s in range((k - i) % n_sats + 1)]
    minus_sats = [(i - s) % n_sats for s in range((i - k) % n_sats + 1)]
    if r < 2:
        raise ValueError("neighbor_range must be >= 2")
    if r > min(len(plus_sats), len(minus_sats)):
        raise ValueError(f"neighbor_range {r} too large for this attachment split")
    walks = {"plus": (GS1, *plus_sats, GS2), "minus": (GS1, *minus_sats, GS2)}
    return RingPath(n_sats, i, k, r, n_rings, walks)


# ------------------------------------------ key table and GF(2) system per segment


@dataclass(frozen=True)
class _Segment:
    """Key table and GF(2) system of one directed segment of one ring.

    Symbols are bits: one per key, in key order, then the segment secret.
    The bits above ``symbols`` tag rows: message row c carries tag bit c,
    so a vector's tags name the message rows it combines.  The public
    message rows are reduced to echelon form once; a compromised satellite
    adds one unit row per key it holds, untagged unless a witness needs it.
    """

    keys: tuple  # point-to-point keys, then twin-field keys by slot_u and distance
    at_slot: tuple  # at_slot[s]: the keys with an endpoint at slot s
    crossing: tuple  # crossing[c]: the keys with slot_u <= c < slot_v
    labels: tuple  # knowledge item of each message row, in row order
    basis: tuple  # echelon basis of the tagged message rows (see _extend); never mutated
    sat_rows: dict  # satellite -> ((key id, bit), ...) of the keys it holds, in key order
    secret: int  # bit of the segment secret
    symbols: int  # mask of the symbol bits


def _segment(walk: tuple, ring: int, segment: str, r: int) -> _Segment:
    m = len(walk) - 1
    keys = [(ring, segment, "p2p", 0, 1), (ring, segment, "p2p", m - 1, m)]
    for u in range(m + 1):
        for d in range(2, r + 1):
            if u + d <= m:
                keys.append((ring, segment, "tf", u, u + d))
    bit = {kid: 1 << i for i, kid in enumerate(keys)}
    secret = 1 << len(keys)
    symbols = 2 * secret - 1
    crossing = tuple(tuple(k for k in keys if k[3] <= c < k[4]) for c in range(m))
    rows = [
        secret ^ functools.reduce(int.__xor__, map(bit.get, kids), 0) | (symbols + 1) << c
        for c, kids in enumerate(crossing)
    ]
    sat_rows: dict = {}
    for kid in keys:
        for node in (walk[kid[3]], walk[kid[4]]):
            if node not in (GS1, GS2):
                sat_rows.setdefault(node, []).append((kid, bit[kid]))
    return _Segment(
        keys=tuple(keys),
        at_slot=tuple(tuple(k for k in keys if s in (k[3], k[4])) for s in range(m + 1)),
        crossing=crossing,
        labels=tuple(("message", ring, segment, walk[c]) for c in range(m)),
        basis=_extend((0, {}), rows, symbols),
        sat_rows={sat: tuple(held) for sat, held in sat_rows.items()},
        secret=secret,
        symbols=symbols,
    )


@functools.lru_cache(maxsize=32)
def _system(path: RingPath) -> dict:
    """{(ring, segment): _Segment} of a path, built once per path value."""
    return {
        (ring, segment): _segment(path.walks[segment], ring, segment, path.neighbor_range)
        for ring in range(path.n_rings)
        for segment in ("plus", "minus")
    }


def segment_keys(path: RingPath, ring: int, segment: str) -> list[tuple]:
    """Key identities of one segment, as (ring, segment, kind, slot_u, slot_v).

    Twin-field keys join slots at distance 2..r; point-to-point keys join
    each ground station to its attachment satellite.
    """
    return list(_system(path)[(ring, segment)].keys)


def key_nodes(path: RingPath, key_id: tuple):
    _, segment, _, u, v = key_id
    walk = path.walks[segment]
    return walk[u], walk[v]


def generate_link_keys(path: RingPath, key_len: int, seed: int) -> dict:
    """Fresh independent uniform keys for every prescribed pair, per segment."""
    if key_len < 1:
        raise ValueError("key_len must be >= 1")
    rng = random.Random(seed)
    keys = {}
    for ring in range(path.n_rings):
        for segment in ("plus", "minus"):
            for kid in segment_keys(path, ring, segment):
                keys[kid] = rng.getrandbits(key_len)
    return keys


@dataclass(frozen=True)
class ForwardTranscript:
    """Public messages of one segment run: (sending node, value) per hop."""

    ring: int
    segment: str
    messages: tuple


def forward(path: RingPath, segment: str, x: int, keys: dict, ring: int = 0) -> ForwardTranscript:
    """Run the masked forwarding chain of one segment; returns all messages."""
    walk = path.walks[segment]
    at_slot = _system(path)[(ring, segment)].at_slot
    messages = []
    value = x
    for slot in range(len(walk) - 1):  # every sender except Bob
        for kid in at_slot[slot]:
            if kid not in keys:
                raise KeyError(f"missing link key {kid}")
            value ^= keys[kid]
        messages.append((walk[slot], value))
    return ForwardTranscript(ring, segment, tuple(messages))


def recover(path: RingPath, transcript: ForwardTranscript, keys: dict) -> int:
    """Bob's unmasking of the final forwarded message."""
    if not transcript.messages:
        raise ValueError("empty transcript")
    walk = path.walks[transcript.segment]
    if len(transcript.messages) != len(walk) - 1:
        raise ValueError("transcript is missing hops")
    value = transcript.messages[-1][1]
    for kid in _system(path)[(transcript.ring, transcript.segment)].at_slot[-1]:
        if kid not in keys:
            raise KeyError(f"missing link key {kid}")
        value ^= keys[kid]
    return value


def crossing_keys(path: RingPath, ring: int, segment: str, cut: int) -> list[tuple]:
    """Keys whose slot pair straddles the cut between slot ``cut`` and cut+1."""
    crossing = _system(path)[(ring, segment)].crossing
    return list(crossing[cut]) if 0 <= cut < len(crossing) else []


# ------------------------------------------------------------- GF(2) oracle


def _extend(basis: tuple, rows: list[int], symbols: int) -> tuple:
    """Echelon basis after adding ``rows``, whose symbol bits are ``symbols``.

    A basis is (mask of pivot bits, {pivot bit: vector}).  A row becomes a
    pivot only when its symbol bits do not reduce to zero; its pivot's bit
    is then the lowest set bit of its reduced vector, below any tag bits,
    and every vector is clear at the bits of the pivots before it.
    """
    mask, pivots = basis[0], dict(basis[1])
    for vec in rows:
        vec = _reduce((mask, pivots), vec)
        if vec & symbols:
            low = vec & -vec
            pivots[low] = vec
            mask |= low
    return mask, pivots


def _reduce(basis: tuple, vec: int) -> int:
    """Residue of ``vec`` against the basis; its tag bits name the rows added to it.

    Clearing the lowest pivot bit present only sets higher bits, so the loop
    ends.  The pivot vectors are independent, so the residue and the rows
    used are those of a pass over the pivots in insertion order.
    """
    mask, pivots = basis
    hit = vec & mask
    while hit:
        vec ^= pivots[hit & -hit]
        hit = vec & mask
    return vec


def adversary_can_recover(
    path: RingPath, scenario: CompromiseScenario, target: str = "ring"
) -> tuple[bool, list]:
    """Exact recoverability of the secret from public messages plus leaks.

    ``target`` selects the end-to-end ring secret (default) or a single
    segment secret ("plus" / "minus", ring 0).  The witness lists the
    knowledge items whose XOR yields the secret, when recoverable.
    """
    per_ring = scenario.per_ring(path.n_rings)
    for ring, sats in per_ring.items():
        for s in sats:
            if not isinstance(s, int) or not 0 <= s < path.n_sats:
                raise ValueError(f"bad compromised satellite index: {s!r}")
    if target not in _TARGETS:
        raise ValueError(f"unknown target: {target}")
    system = _system(path)
    segments = ("plus", "minus") if target == "ring" else (target,)
    witness = []
    for ring in range(path.n_rings if target == "ring" else 1):
        sats = sorted(per_ring[ring])
        messages, keys = [], []
        for name in segments:
            seg = system[(ring, name)]
            rows = [(sat, kid, bit) for sat in sats for kid, bit in seg.sat_rows.get(sat, ())]
            tag = seg.symbols + 1 << len(seg.labels)  # the tag of the first key row
            basis = _extend(seg.basis, [bit | tag << i for i, (_, _, bit) in enumerate(rows)],
                            seg.symbols)
            residue = _reduce(basis, seg.secret)
            if residue & seg.symbols:
                return False, []
            combo = residue >> seg.symbols.bit_length()
            messages += [label for i, label in enumerate(seg.labels) if combo >> i & 1]
            combo >>= len(seg.labels)
            keys += [(sat, kid) for i, (sat, kid, _) in enumerate(rows) if combo >> i & 1]
        # a joint elimination holds each satellite's rows together, plus keys first
        keys.sort(key=lambda item: item[0])
        witness += messages + [("key", kid) for _, kid in keys]
    return True, witness


@dataclass(frozen=True)
class MinCompromiseResult:
    exact: bool
    size: int | None
    example: tuple
    lower: int
    upper: int | None


def _subsets(seg: _Segment, candidates: list, prefix: tuple, basis, start: int, size: int):
    """Extensions of ``prefix`` by ``size`` of ``candidates[start:]``, in
    lexicographic order, each with its basis: every satellite added extends
    a copy of its prefix's basis by that satellite's untagged key rows."""
    if size == 0:
        yield prefix, basis
        return
    for idx in range(start, len(candidates) - size + 1):
        sat = candidates[idx]
        rows = [bit for _, bit in seg.sat_rows[sat]]
        yield from _subsets(seg, candidates, prefix + (sat,), _extend(basis, rows, seg.symbols),
                            idx + 1, size - 1)


def _smallest_recovering(seg: _Segment, basis, candidates: list, max_size: int, budget: int):
    """Lexicographically smallest of the smallest subsets of ``candidates``,
    of at most ``max_size`` satellites, that together with ``basis`` recover
    the segment secret; at most ``budget`` subsets are tested.

    Returns (subset or None, subsets tested, first size not ruled out).  With
    no subset found, that size is ``max_size + 1`` when the search finished
    and at most ``max_size`` when the budget ran out.
    """
    tested = 0
    for size in range(max_size + 1):
        for subset, extended in _subsets(seg, candidates, (), basis, 0, size):
            if tested == budget:
                return None, tested, size
            tested += 1
            if not _reduce(extended, seg.secret) & seg.symbols:
                return subset, tested, size
    return None, tested, max_size + 1


def min_compromise(
    path: RingPath,
    allow_attachments: bool = True,
    target: str = "ring",
    max_evals: int = 500_000,
) -> MinCompromiseResult:
    """Smallest compromised-satellite set that recovers the secret.

    The ring minimum is the minimum, over each set A of compromised
    attachments (only the empty one when attachments are excluded), of |A|
    plus, per segment, the smallest set of that segment's interior
    satellites that recovers its secret together with A; this is exact by
    the direct sum in the module docstring.  A segment target counts only
    its own segment.

    Each per-segment search walks the interior subsets depth-first in size
    then ascending-index lexicographic order, starting from the basis
    extended by A's keys, and stops at sizes that can no longer tie the best
    total found.  The union of the segments' lexicographically smallest
    minimal sets is the lexicographically smallest minimal set for that A,
    so the reported example is the one an exhaustive size-then-lexicographic
    search over all satellites would find.

    Rings are independent: a ``ring`` target on several rings needs the
    per-ring minimum on every ring (the example lists it per ring as
    (ring, satellite) pairs), while a segment target concerns ring 0 alone.
    ``max_evals`` caps the total number of subsets tested over all
    per-segment searches.  When it runs out the result is a certified
    bracket: ``lower`` bounds every unsearched case from below, and
    ``upper`` with ``example`` is the best recovering set found, if any.
    A target that no set recovers gives an exact result with size None and,
    per counted ring, a lower bound one above the number of satellites that
    may be compromised.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target: {target}")
    segments = ("plus", "minus") if target == "ring" else (target,)
    a, b = sorted((path.attach_a, path.attach_b))
    choices = [(), (a,), (b,), (a, b)] if allow_attachments else [()]
    rings = path.n_rings if target == "ring" else 1

    def result(exact, size, example, lower, upper):
        if path.n_rings > 1:
            example = tuple((ring, sat) for ring in range(rings) for sat in example)
        return MinCompromiseResult(
            exact, None if size is None else size * rings, example, lower * rings,
            None if upper is None else upper * rings,
        )

    evals, best, example = 0, None, ()
    for index, attached in enumerate(choices):
        chosen = attached
        for name in segments:
            seg = _system(path)[(0, name)]
            interior = sorted(path.walks[name][2:-2])
            rows = [bit for sat in attached for _, bit in seg.sat_rows[sat]]
            cap = len(interior) if best is None else best - len(chosen)
            found, tested, size = _smallest_recovering(
                seg, _extend(seg.basis, rows, seg.symbols), interior, cap, max_evals - evals
            )
            evals += tested
            if found is None and size <= cap:  # budget spent
                pending = [len(chosen) + size] + [len(c) for c in choices[index + 1:]]
                lower = min(pending if best is None else pending + [best])
                return result(False, None, example, lower, best)
            if found is None:  # no set recovers with these attachments, or none ties best
                break
            chosen += found
        else:
            chosen = tuple(sorted(chosen))
            if best is None or (len(chosen), chosen) < (best, example):
                best, example = len(chosen), chosen
    if best is None:
        sats = path.n_sats - (0 if allow_attachments else 2)
        return result(True, None, (), sats + 1, None)
    return result(True, best, example, best, best)


def feasible_neighbor_range(n_sats: int, isl_budget_db: float) -> int:
    """Largest usable twin-field neighbour range under an ISL loss budget.

    A range-r key between S_j and S_(j+r) is measured at the node adjacent
    to one endpoint, so its longest optical arm spans ring distance r - 1.
    That arm's chord, on a ring at ``ORBIT_ALTITUDE_KM`` with the default
    ``OpticalParams``, must stay inside the loss budget and clear the
    ``ATM_SHELL_KM`` atmospheric shell.  Pointing loss is excluded, matching
    the published feasibility envelope where the budget refers to the
    optics-plus-geometry loss alone.
    """
    from .linkbudget import OpticalParams, isl_efficiency, to_db

    if n_sats < 3:
        raise ValueError("need at least three satellites")
    if not math.isfinite(isl_budget_db):
        raise ValueError(f"isl_budget_db must be finite, got {isl_budget_db}")
    optics = OpticalParams()
    radius = EARTH_RADIUS_KM + ORBIT_ALTITUDE_KM
    r = 1
    while r < n_sats / 2.0:  # candidate range r + 1 has longest arm r
        chord_km = 2.0 * radius * math.sin(r * math.pi / n_sats)
        clear = radius * math.cos(r * math.pi / n_sats) > EARTH_RADIUS_KM + ATM_SHELL_KM
        loss = to_db(isl_efficiency(chord_km * 1e3, optics, include_pointing=False))
        if not (clear and loss <= isl_budget_db):
            break
        r += 1
    return r
