"""The hashed output manifest: part of its grid, regenerated and compared."""

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
