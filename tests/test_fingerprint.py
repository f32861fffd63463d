"""Fixed-seed outputs are identical to the golden fingerprint (see fingerprint.py)."""

import json

import fingerprint


def test_outputs_match_the_golden_fingerprint():
    want = json.loads(fingerprint.GOLDEN.read_text(encoding="utf-8"))
    got = fingerprint.compute()
    moved = fingerprint.differences(got, want)
    assert not moved, f"{len(moved)} of {len(want)} entries moved, first {moved[:10]}"

