"""Golden campaign outputs: short campaigns must reproduce recorded bytes.

The digests were recorded before the SNS optimiser evaluated its
candidates in batches, with the earlier one-candidate-at-a-time search.
Any change to the search path, to the pooled statistics or to the
finite-key ledger moves them.
"""

import hashlib

import pytest

from ringqkd.cli import main

GOLDEN = {
    "max": {
        "links.csv": "251bacf961701093ab3ec418822b9d1a4dd93d97f68e9c41e40a32589ec5862e",
        "summary.json": "1f701f6a8caf3015049fc15cd47df10f6ae5f85c0846bc689ce876645ab6dcee",
    },
    "asymmetric": {
        "links.csv": "c87dcf06dbe210b2e42246f628f6daa5ec9d91ee55f0e182fa1a60ae12e65f60",
        "summary.json": "f94bf0b03a6f95f142a32b7712c0a982caf04fa9ea28d9b0918042837414463e",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_short_campaign_matches_recorded_digests(mode, tmp_path):
    rc = main([
        "simulate", "--output-dir", str(tmp_path),
        "--set", "campaign.n_days=2",
        "--set", "campaign.t_total_s=1800",
        "--set", f"channel.effective_mode={mode}",
    ])
    assert rc == 0
    for name, digest in GOLDEN[mode].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
