"""The README's library tour runs as a doctest, so it cannot drift from the
library."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted >= 12
    assert result.failed == 0
