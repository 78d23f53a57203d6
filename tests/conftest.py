from contextlib import contextmanager

import pytest

from towertree import Tower, tree_of_tower, windowed_solenoid_tower
from towertree.towers import Window


@pytest.fixture
def two_branch_tower():
    # two vertices at level 2, only b1 continues to level 3
    return Tower(
        [["a"], ["b1", "b2"], ["c1"]],
        [{"b1": "a", "b2": "a"}, {"c1": "b1"}],
    )


@pytest.fixture
def two_branch_tree(two_branch_tower):
    return tree_of_tower(two_branch_tower)


@pytest.fixture
def solenoid_p2():
    """Doubling tower inside the window [-1024, 1024], depth 11."""
    return windowed_solenoid_tower([2], 1024, 11)


def constant_tower(depth, size=1):
    ids = [f"x{i}" for i in range(size)]
    return Tower([ids] * depth, [{x: x for x in ids}] * (depth - 1))


@contextmanager
def printed_ids():
    """The ids that Windows yield inside the block, in order: an item or a
    slice read, which iteration, a Window's hash and its equality with a
    tuple go through.  A test that needs a call to print nothing asserts
    that the list stays empty."""
    ids = []

    def item(self, i, read=Window.__getitem__):
        got = read(self, i)
        ids.extend(got if type(got) is tuple else [got])
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Window, "__getitem__", item)
        yield ids
