"""Golden campaign outputs: short campaigns must reproduce recorded bytes.

The ``max`` and ``asymmetric`` digests were recorded before the SNS
optimiser evaluated its candidates in batches, with the earlier
one-candidate-at-a-time search.  Any change to the search path, to the
pooled statistics or to the finite-key ledger moves them.  The
``session-offgrid`` case was recorded before session extraction and zenith
angles were merged into one geometry path: per-session blocks on a grid
whose epoch and step are not whole seconds, so that the sample grid, the
bisection tolerance and the per-session sums of a non-dyadic step all show
in its bytes.
"""

import hashlib

import pytest

from ringqkd.cli import main

CASES = {
    "max": ["channel.effective_mode=max"],
    "asymmetric": ["channel.effective_mode=asymmetric"],
    "session-offgrid": [
        "campaign.pooling=session",
        "constellation.epoch_s=0.1",
        "campaign.time_step_s=0.7",
    ],
}

GOLDEN = {
    "max": {
        "links.csv": "251bacf961701093ab3ec418822b9d1a4dd93d97f68e9c41e40a32589ec5862e",
        "summary.json": "1f701f6a8caf3015049fc15cd47df10f6ae5f85c0846bc689ce876645ab6dcee",
    },
    "asymmetric": {
        "links.csv": "c87dcf06dbe210b2e42246f628f6daa5ec9d91ee55f0e182fa1a60ae12e65f60",
        "summary.json": "f94bf0b03a6f95f142a32b7712c0a982caf04fa9ea28d9b0918042837414463e",
    },
    "session-offgrid": {
        "links.csv": "04e0ab673ed103554275c6c036e3809ed12cf690859935e8a59b728dab1d359c",
        "summary.json": "ba2de99de26f5fd216393890ecb1f9906635413515d936d4ae7fa970d0532f08",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_short_campaign_matches_recorded_digests(case, tmp_path):
    overrides = ["campaign.n_days=2", "campaign.t_total_s=1800", *CASES[case]]
    argv = ["simulate", "--output-dir", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    for name, digest in GOLDEN[case].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
