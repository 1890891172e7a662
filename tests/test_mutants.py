"""Every mutant of the register is killed by its checks (``tests/mutants.py``)."""

import pytest

from mutants import REGISTER, unkilled


@pytest.mark.parametrize("name", REGISTER)
def test_each_registered_mutant_is_killed(name):
    assert unkilled(name) == []
