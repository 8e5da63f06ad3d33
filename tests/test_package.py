import delay_lqgame


def test_public_names_resolve_sorted_and_unique():
    names = delay_lqgame.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(delay_lqgame, name), name
