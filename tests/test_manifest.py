"""The hashed output manifest: part of its grid, regenerated and compared."""

import pytest

import manifest


def test_the_manifest_s_n4_searches_and_first_corpus_seeds_are_the_recording():
    # with criterion 4's 240 control-grid cells; the whole grid takes about ten seconds
    # and is checked by running tests/manifest.py
    golden = manifest.recorded()
    found = manifest.entries(sizes=(4,), seeds=(1, 2, 3))
    assert len(found) > 1000
    changed = manifest.differences(found, golden)
    assert not changed, (f"{len(changed)} commands differ, the first: {changed[0]}; "
                         f"{manifest.build_note(golden)}")


def test_diff_sorts_a_numbers_only_change_from_a_verdict_change():
    recorded = {"exit": 0, "lines": ["a"], "fields": [
        {"verdict": "holds_strict", "findings": {"blocks_normal": True}, "margin": "0.25"}]}
    nudged = {"exit": 0, "lines": ["b"], "fields": [
        {"verdict": "holds_strict", "findings": {"blocks_normal": True},
         "margin": repr(0.25 * (1 + 1e-12))}]}
    flipped = {"exit": 0, "lines": ["c"], "fields": [
        {"verdict": "equality", "findings": {"blocks_normal": True}, "margin": "0.25"}]}
    golden = {"environment": manifest.environment(),
              "commands": {"nudged": recorded, "flipped": recorded, "same": recorded}}
    found = {"nudged": nudged, "flipped": flipped, "same": recorded}
    verdict, numbers = manifest.classify(found, golden)
    assert verdict == ["flipped: exit or verdict changed, verdict 'holds_strict' -> 'equality'"]
    assert numbers == ["nudged: numbers only, margin 1e-12"]
    assert manifest.moves(nudged, recorded)["margin"] == pytest.approx(1e-12, rel=1e-3)
    assert manifest.diff(found, golden) == 1
    del golden["commands"]["flipped"]
    assert manifest.diff({"nudged": nudged, "same": recorded}, golden) == 0
