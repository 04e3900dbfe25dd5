"""Every public export resolves.

A deleted function or module can leave its name behind in a package's
``__all__`` (and ``from repro.x import *`` then fails).  This imports
every ``repro`` package and module and checks each name it exports.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    packages = [n for n in names if hasattr(importlib.import_module(n), "__path__")]
    assert len(packages) >= 10, packages
    dangling = [
        f"{name}.{export}"
        for name in names
        for module in [importlib.import_module(name)]
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert dangling == []
