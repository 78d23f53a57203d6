import pytest

from towertree import Tower, tree_of_tower, windowed_solenoid_tower


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


def printed(tower) -> bool:
    """Whether the tower holds its ids, read without printing them."""
    try:
        object.__getattribute__(tower, "levels")
    except AttributeError:
        return False
    return True
