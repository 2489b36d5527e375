"""Record the reference outputs that benchmark runs are checked against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record.py

For every campaign workload and input variant it runs ``ringqkd simulate``
from the scenario overrides and stores the digests of the four output files;
for every oracle workload it stores which of its point queries the oracle
answers positively.  Runs later replay the campaigns from their manifests,
so a match also shows that a manifest rerun reproduces the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys

from worker import (
    CAMPAIGNS,
    PINNED_ENV,
    ORACLES,
    REFERENCES,
    ROOT,
    VARIANTS,
    answer_bitmap,
    build_path,
    campaign_args,
    file_digests,
    import_ringqkd,
    make_queries,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.parse_args(argv)
    os.environ.update(PINNED_ENV)
    refs = {"campaign": {}, "query": {}}
    rq = import_ringqkd()
    outdir = ROOT / ".perfbench_out" / "record"
    for workload in CAMPAIGNS:
        for variant in range(VARIANTS):
            shutil.rmtree(outdir, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = rq.cli.main(["simulate", *campaign_args(workload, variant), "--output-dir", str(outdir)])
            if rc != 0:
                raise SystemExit(f"{workload} variant {variant}: simulate exited with {rc}")
            refs["campaign"].setdefault(workload, {})[str(variant)] = file_digests(outdir)
            print(f"{workload} variant {variant} recorded", flush=True)
    for workload, spec in ORACLES.items():
        path = build_path(rq.relay, spec["query_ring"])
        for variant in range(VARIANTS):
            answers = [
                rq.relay.adversary_can_recover(path, rq.relay.CompromiseScenario(q))[0]
                for q in make_queries(workload, variant)
            ]
            refs["query"].setdefault(workload, {})[str(variant)] = answer_bitmap(answers)
            print(f"{workload} variant {variant}: {sum(answers)}/{len(answers)} positive", flush=True)
    shutil.rmtree(outdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
