"""The package's export list matches what `kedge/__init__.py` binds."""

import types

import kedge


def test_all_names_exactly_the_public_bindings():
    assert all(hasattr(kedge, name) for name in kedge.__all__)
    assert len(set(kedge.__all__)) == len(kedge.__all__)
    public = {
        name
        for name, value in vars(kedge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kedge.__all__) == public
