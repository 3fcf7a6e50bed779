import importlib
import pkgutil

import ftsmooth


def test_every_exported_name_resolves_once():
    modules = [ftsmooth] + [importlib.import_module(f"ftsmooth.{info.name}")
                            for info in pkgutil.iter_modules(ftsmooth.__path__)]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_the_one_fit_is_exported():
    from ftsmooth import estimators

    for name in ("fit", "ESTIMATORS", "FIT_ERRORS"):
        assert name in ftsmooth.__all__, name
        assert getattr(ftsmooth, name) is getattr(estimators, name), name
