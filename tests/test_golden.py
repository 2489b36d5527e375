"""Golden campaign outputs: short campaigns must reproduce recorded bytes.

The ``max`` and ``asymmetric`` digests were recorded before the SNS
optimiser evaluated its candidates in batches, with the earlier
one-candidate-at-a-time search.  Any change to the search path, to the
pooled statistics or to the finite-key ledger moves them.  The
``session-offgrid`` case was recorded before session extraction and zenith
angles were merged into one geometry path: per-session blocks on a grid
whose epoch and step are not whole seconds, so that the sample grid, the
bisection tolerance and the per-session sums of a non-dyadic step all show
in its bytes.  The ``daily-offgrid`` case was recorded before a day's
samples were budgeted and binned in groups of sessions rather than one
session at a time: daily blocks of asymmetric bins on the same grid, so
that each bin's seconds, added up over a link's sessions in the order of
the day, show in its bytes.  The ``uplink-max`` case was recorded before
every block of more than 128 bins took the one-candidate memo path.  With
the ISL pointing loss counted and a larger jitter, the uplink sets the
``max``-mode effective link on some samples, so its daily blocks have 1-170
bins, most of them 80-170, on both sides of that switch; its keys are
positive.
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
    "daily-offgrid": [
        "campaign.pooling=daily",
        "constellation.epoch_s=0.1",
        "campaign.time_step_s=0.7",
        "channel.effective_mode=asymmetric",
    ],
    "uplink-max": [
        "campaign.t_total_s=3600",
        "optics.pointing_jitter_urad=2.5",
        "channel.isl_pointing_in_effective=true",
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
    "daily-offgrid": {
        "links.csv": "9073e98c8a6124d4166825f2ea14892f66846411a7443ccee586fadde10cdfc4",
        "summary.json": "5585a68f3b47ac45db50307002fb03736dc4fce41348b807c7f258c823fe36b1",
    },
    "uplink-max": {
        "links.csv": "e084572541d66a485adf2b108353e2eb97dac2faea232482f6b3e0d2a7120367",
        "summary.json": "b30a77a88c804576ebd439cd682d01e4256a1cd9e197af1491d6820c32636f3a",
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
