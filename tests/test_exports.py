import importlib
import pkgutil

import neutralctl


def test_every_exported_name_resolves():
    # a deleted helper must not stay in its module's export list
    modules = [importlib.import_module(f"neutralctl.{info.name}")
               for info in pkgutil.iter_modules(neutralctl.__path__)]
    exported = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exported) >= 6
    for mod in exported:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
