import types

import rainbownet


def test_every_exported_name_resolves():
    assert len(set(rainbownet.__all__)) == len(rainbownet.__all__)
    assert [name for name in rainbownet.__all__ if not hasattr(rainbownet, name)] == []


def test_every_public_import_is_exported():
    # submodules become package attributes when imported; they are not exports
    public = {
        name
        for name, value in vars(rainbownet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(rainbownet.__all__)
