"""The standing mutation list still applies: every mutant's old text occurs
exactly once in its file.  Running the mutants is ``python3 tests/mutants.py``."""

from mutants import problems


def test_every_mutant_applies():
    assert problems() == []
