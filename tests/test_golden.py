"""The witnesses' answers on fixed inputs match the recorded golden outputs
(`tests/golden.py` says what is recorded and how to rewrite it)."""

from __future__ import annotations

import json

from golden import PATH, compute, mismatches


def test_outputs_match_golden_file():
    assert mismatches(json.loads(PATH.read_text()), compute()) == []
