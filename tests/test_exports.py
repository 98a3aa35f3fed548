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


def test_package_exports_every_module_export_once():
    # the package namespace is the library modules' __all__, so a name a
    # module declares public is reachable as neutralctl.<name>, from one module
    modules = [importlib.import_module(f"neutralctl.{name}") for name in
               ("analysis", "linalg", "simulate", "spectrum", "synthesis", "system")]
    owner = {}
    for mod in modules:
        for name in mod.__all__:
            assert name not in owner, (name, owner.get(name), mod.__name__)
            owner[name] = mod.__name__
            assert getattr(neutralctl, name) is getattr(mod, name), (mod.__name__, name)
