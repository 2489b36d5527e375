"""One benchmark process: set up, run timed passes, check every output.

``run.py`` starts this script in fresh processes.  A ``setup`` process only
imports ringqkd and prepares the workload, so that set-up time is measured
in a new interpreter each time; a ``measure`` process then also runs passes
of the workload's timed body until ``--seconds`` is used up (at least one,
or two when traced, so that the counts can be compared between passes) and
writes what it measured as JSON to ``--result``.  Both kinds time a host
speed probe after set-up; an untraced measure process also times it during
its passes, so that its times can be scaled to a reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"  # written by record.py

# Environment of every benchmark process: serial numerics, fixed hashing.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# The seed selects one of this many input variants; reference outputs are
# recorded for each of them.
VARIANTS = 12

# Campaigns run through ``ringqkd simulate`` with these overrides; the
# variant sets ``campaign.seed``, which sets the orbital phase of each day.
CAMPAIGNS = {
    "type1-n24": {"set": ("constellation.kind=type1", "constellation.num_sats=24"), "days": 1},
    "type2-n36": {"set": ("constellation.kind=type2", "constellation.num_sats=36"), "days": 1},
    "asym-type2-n12": {
        "set": (
            "constellation.kind=type2",
            "constellation.num_sats=12",
            "channel.effective_mode=asymmetric",
        ),
        "days": 1,
    },
    "smoke-campaign": {
        "set": (
            "constellation.kind=type2",
            "constellation.num_sats=12",
            "campaign.t_total_s=1800",
            "campaign.optimizer_starts=1",
            "campaign.optimizer_evals=40",
        ),
        "days": 2,
    },
}

# Oracle workloads: an exact minimum-compromise search with its known answer,
# then a batch of seeded point queries to the recoverability oracle on
# another ring.  Rings are (n, i, k, r) as ``build_paths`` takes them.
ORACLES = {
    "oracle-n24-r3": {"ring": (24, 0, 12, 3), "size": 5, "example": (0, 1, 2, 22, 23),
                      "query_ring": (36, 0, 18, 3), "count": 2000},
    "smoke-oracle": {"ring": (12, 0, 6, 3), "size": 5, "example": (0, 1, 2, 10, 11),
                     "query_ring": (12, 0, 6, 3), "count": 100},
}

WORKLOADS = {**{w: "campaign" for w in CAMPAIGNS}, **{w: "oracle" for w in ORACLES}}

CAMPAIGN_FILES = ("report.csv", "links.csv", "summary.json", "manifest.ini")

# The host gives the benchmark shared vCPUs whose speed drifts by 20-50%
# over seconds to minutes, so a pass's wall time alone spreads more between
# runs than a regression bound can allow.  A fixed probe, independent of
# ringqkd, is timed every PROBE_INTERVAL_S during the untraced passes.  Work
# done is wall time times mean speed, and speed is inversely proportional
# to the probe's time, so a pass's scaled time is its wall time times
# PROBE_REFERENCE_S over the harmonic mean of the probe's times during that
# pass: the wall time the pass would have taken at the reference speed.
PROBE_INTERVAL_S = 0.1
SETUP_PROBES = 60
PROBE_REFERENCE_S = 430e-6  # about the probe on a quiet baseline host; it only sets the scale


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def campaign_args(workload: str, variant: int) -> list[str]:
    """``--set`` arguments of one campaign variant, serial by construction."""
    spec = CAMPAIGNS[workload]
    sets = list(spec["set"]) + [
        f"campaign.n_days={spec['days']}",
        f"campaign.seed={1 + variant}",
        "campaign.workers=1",
    ]
    return [arg for s in sets for arg in ("--set", s)]


def file_digests(outdir: Path) -> dict:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in CAMPAIGN_FILES}


def make_queries(workload: str, variant: int) -> list[frozenset]:
    """Seeded compromised sets: random sets, recovering windows and near misses.

    A run of ``r`` consecutive interior satellites of one segment holds every
    key crossing one cut, so one such run on each segment (or the ``2r - 1``
    satellites around an attachment) recovers the ring secret; dropping one
    satellite of those runs usually does not.
    """
    n, i, k, r = ORACLES[workload]["query_ring"]
    rng = random.Random(1_000_003 * variant + n)
    plus = [(i + s) % n for s in range(1, (k - i) % n)]
    minus = [(i - s) % n for s in range(1, (i - k) % n)]
    queries = []
    for _ in range(ORACLES[workload]["count"]):
        kind = rng.randrange(3)
        if kind == 0:
            queries.append(frozenset(rng.sample(range(n), rng.randint(2, 2 * r + 2))))
            continue
        if rng.random() < 0.25:
            a = rng.choice((i, k))
            chosen = [(a + d) % n for d in range(-(r - 1), r)]
        else:
            p0 = rng.randrange(len(plus) - r + 1)
            m0 = rng.randrange(len(minus) - r + 1)
            chosen = plus[p0:p0 + r] + minus[m0:m0 + r]
        if kind == 2:
            chosen.remove(rng.choice(chosen))
        chosen += rng.sample(range(n), rng.randint(0, 3 - kind))
        queries.append(frozenset(chosen))
    return queries


def witness_recovers(relay, path, compromised: frozenset, witness: list, key_seed: int) -> bool:
    """Replay a witness on real keys and messages: its XOR must be the secret."""
    keys = relay.generate_link_keys(path, 64, key_seed)
    rng = random.Random(key_seed)
    secrets = {seg: rng.getrandbits(64) for seg in ("plus", "minus")}
    sent = {}
    for seg, x in secrets.items():
        for node, value in relay.forward(path, seg, x, keys).messages:
            sent[(seg, node)] = value
    acc = 0
    for item in witness:
        if item[0] == "message":
            _, _, seg, node = item
            acc ^= sent[(seg, node)]
        else:
            kid = item[1]
            if not compromised & set(relay.key_nodes(path, kid)):
                return False
            acc ^= keys[kid]
    return acc == secrets["plus"] ^ secrets["minus"]


class Campaign:
    def __init__(self, workload, variant, refs, workdir):
        self.workload, self.variant, self.workdir = workload, variant, workdir
        self.expected = refs["campaign"][workload][str(variant)]
        self.days = CAMPAIGNS[workload]["days"]

    def setup(self, rq):
        self.cli = rq.cli
        setup_dir = self.workdir / "setup"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["validate", *campaign_args(self.workload, self.variant),
                                "--output-dir", str(setup_dir)])
        if rc != 0:
            raise RuntimeError(f"scenario validation failed with exit code {rc}")
        self.manifest = setup_dir / "manifest.ini"

    def run_pass(self, index):
        outdir = self.workdir / f"pass{index}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["simulate", str(self.manifest), "--output-dir", str(outdir)])
        wall = time.perf_counter() - t0
        # Rerunning the manifest must reproduce the recorded outputs and the
        # manifest itself byte for byte.
        try:
            ok = rc == 0 and file_digests(outdir) == self.expected
            ok = ok and (outdir / "manifest.ini").read_bytes() == self.manifest.read_bytes()
        except FileNotFoundError:
            ok = False
        shutil.rmtree(outdir, ignore_errors=True)
        return wall, self.days, 0 if ok else self.days, {}


def build_path(relay, ring):
    n, i, k, r = ring
    return relay.build_paths(n, i, k, r=r)


class Oracle:
    """One ``min_compromise`` search, then the batch of point queries."""

    def __init__(self, workload, variant, refs, workdir):
        self.spec = ORACLES[workload]
        self.queries = make_queries(workload, variant)
        self.expected = bytes.fromhex(refs["query"][workload][str(variant)])

    def setup(self, rq):
        self.relay = rq.relay
        self.path = build_path(self.relay, self.spec["ring"])
        self.query_path = build_path(self.relay, self.spec["query_ring"])

    def run_pass(self, index):
        mincomp, search_failed = self.search()
        query_wall, latencies, query_failed = self.query_batch()
        extra = {"mincomp_s": mincomp, "query_s": latencies}
        return mincomp + query_wall, 1 + len(self.queries), search_failed + query_failed, extra

    def search(self):
        t0 = time.perf_counter()
        try:
            res = self.relay.min_compromise(self.path)
        except Exception as exc:  # counted as a failed operation
            print(f"min_compromise raised: {exc!r}", file=sys.stderr)
            res = None
        wall = time.perf_counter() - t0
        ok = res is not None and res.exact and res.size == self.spec["size"]
        ok = ok and tuple(res.example) == self.spec["example"]
        return wall, 0 if ok else 1

    def query_batch(self):
        relay, path = self.relay, self.query_path
        answers, latencies = [], []
        clock = time.perf_counter
        t0 = clock()
        for compromised in self.queries:
            q0 = clock()
            try:
                answers.append(relay.adversary_can_recover(path, relay.CompromiseScenario(compromised)))
            except Exception as exc:  # counted as a failed operation
                print(f"adversary_can_recover raised: {exc!r}", file=sys.stderr)
                answers.append(None)
            latencies.append(clock() - q0)
        wall = clock() - t0
        failed = 0
        for q, (compromised, answer) in enumerate(zip(self.queries, answers)):
            want = bool(self.expected[q // 8] >> (q % 8) & 1)
            if answer is None or answer[0] != want:
                failed += 1
            elif want and not witness_recovers(relay, path, compromised, answer[1], q):
                failed += 1
        return wall, latencies, failed


KINDS = {"campaign": Campaign, "oracle": Oracle}


class HostProbe:
    """Times a fixed probe from a SIGALRM handler while a pass runs.

    The handler runs between the pass's own bytecodes, in the same thread,
    so the samples see the host's speed at the moments the pass ran.  The
    probe mixes the kinds of work ringqkd's hot loops do: pure-Python
    integer arithmetic, a small GF(2) elimination on Python integers, and
    calls on small numpy arrays.
    """

    def __init__(self):
        import numpy  # already imported by ringqkd

        self.np = numpy
        self.array = numpy.arange(256.0)
        self.rows = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 96) - 1) for i in range(48)]
        self.samples = []

    def sample(self) -> float:
        """Time of one warm probe: the pass has just evicted its code and data
        from the caches, and how much it evicts depends on ringqkd."""
        self._probe()
        t0 = time.perf_counter()
        self._probe()
        return time.perf_counter() - t0

    def _probe(self):
        total = 0
        for i in range(3000):
            total += i * i
        pivots = []
        for vec in self.rows:
            for pbit, pvec in pivots:
                if vec & pbit:
                    vec ^= pvec
            if vec:
                pivots.append((vec & -vec, vec))
        a = self.array
        for _ in range(30):
            a = self.np.sqrt(a * a + 1.0)

    def _tick(self, signum, frame):
        self.samples.append(self.sample())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def answer_bitmap(answers: list[bool]) -> str:
    out = bytearray((len(answers) + 7) // 8)
    for q, ok in enumerate(answers):
        if ok:
            out[q // 8] |= 1 << (q % 8)
    return out.hex()


def import_ringqkd() -> SimpleNamespace:
    """Import the CLI (and with it every layer) from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ringqkd.cli
    import ringqkd.relay

    if Path(ringqkd.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"ringqkd imported from {ringqkd.cli.__file__}, not from {src}")
    return SimpleNamespace(cli=ringqkd.cli, relay=ringqkd.relay)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    refs = json.loads(REFERENCES.read_text())
    workdir = Path(args.workdir)
    body = KINDS[WORKLOADS[args.workload]](args.workload, variant_of(args.seed), refs, workdir)
    tracer = None

    t0 = time.perf_counter()
    rq = import_ringqkd()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    body.setup(rq)
    setup = time.perf_counter() - t0
    # Set-up is too short to sample while it runs; the probe runs right after.
    probe = HostProbe()
    setup_probe_s = statistics.harmonic_mean(probe.sample() for _ in range(SETUP_PROBES))
    result = {"setup_s": setup, "scaled_setup_s": setup * PROBE_REFERENCE_S / setup_probe_s}
    if tracer:
        result["load_s"] = tracer.metrics().get("scenario.load_s")
        result["absent"] = tracer.missing

    if args.role == "measure":
        min_passes = 2 if tracer else 1
        # Traced runs time their layers without the probe in them.
        probe = None if tracer else probe
        if probe:
            probe.start()
        passes = []
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            pass_start = time.perf_counter()
            first_sample = len(probe.samples) if probe else 0
            wall, ops, failed, extra = body.run_pass(len(passes))
            entry = {"wall_s": wall, "ops": ops, "failed": failed, **extra}
            if tracer:
                entry["layers"] = tracer.metrics()
            if probe:
                # a pass shorter than the probe interval samples once after it
                probe_s = statistics.harmonic_mean(probe.samples[first_sample:] or [probe.sample()])
                entry["probe_s"] = probe_s
                entry["scaled_wall_s"] = wall * PROBE_REFERENCE_S / probe_s
            passes.append(entry)
            if len(passes) == 1:
                # later passes can raise the peak a little, and their number
                # depends on the host's speed
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            now = time.perf_counter()
            # stop before a pass that would end after --seconds
            if len(passes) >= min_passes and now - start + (now - pass_start) > args.seconds:
                break
        if probe:
            probe.stop()
        result["passes"] = passes
        result["peak_rss_mb"] = peak_kib / 1024.0
        result["versions"] = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}
    if tracer:
        tracer.uninstall()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
