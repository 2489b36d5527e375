"""Golden campaign outputs: short campaigns must reproduce recorded bytes.

The ``max`` and ``asymmetric`` digests were recorded before the SNS
optimiser evaluated its candidates in batches, with the earlier
one-candidate-at-a-time search.  Any change to the search path, to the
pooled statistics or to the finite-key ledger moves them.  The
``session-offgrid`` case holds per-session blocks on a grid whose epoch and
step are not whole seconds, so that the sample grid, the bisection
tolerance and the seconds of a non-dyadic step all show in its bytes.  It
was re-recorded when a bin's seconds became its sample count times dt,
taken once, in place of dt added once per sample: its values moved by at
most 1.2e-14 relative in ``links.csv`` (2.0e-14 in a standard deviation of
``summary.json``), and the mean ``block_size`` went from 4576599999999.965
to 4576600000000.0, its 6,538 samples times 0.7 s times 1 GHz.  Its earlier
digests were ``04e0ab67...`` (``links.csv``) and ``ba2de99d...``
(``summary.json``).  The
``daily-offgrid`` case was recorded before a day's samples were budgeted
and binned in groups of sessions rather than one session at a time: daily
blocks of asymmetric bins on the same grid, whose bins hold at most 6
samples; its digests did not move when the seconds became counts times dt.
The ``uplink-max`` case was recorded before
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
        "links.csv": "38d156961d6068f5100c32ddc4eb945617c0a3937a3737c5a0030bd3e9cc4b00",
        "summary.json": "e51e1024461ba12bc2b70cfef6ef3c32f7af6addc87b328407a2432322a811ec",
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
