"""Every mutant of the register is killed by its checks (``tests/mutants.py``),
and every record of the battery kills one."""

from functools import partial

import pytest

from dqmf.suite import CHECKS
from mutants import REGISTER, battery, unkilled


@pytest.mark.parametrize("name", REGISTER)
def test_each_registered_mutant_is_killed(name):
    assert unkilled(name) == []


def test_every_battery_record_kills_a_registered_mutant():
    """The union of the register's battery kill lists is every ``suite.CHECKS``
    key and the memo self-check's record: no record of ``dqmf verify`` is
    without a mutant that it fails."""
    killed = set()
    for mutant in REGISTER.values():
        for check, value in mutant.kills:
            if isinstance(check, partial) and check.func is battery:
                killed.update(value)
    assert killed == set(CHECKS) | {"memo_isobaric"}
