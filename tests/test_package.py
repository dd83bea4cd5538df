import edgecolor


def test_all_names_resolve_once():
    names = edgecolor.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(edgecolor, name)]
    assert not missing, f"exported but undefined: {missing}"
