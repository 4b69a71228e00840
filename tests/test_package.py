import importlib

import hivbrn

MODULES = [
    importlib.import_module(f"hivbrn.{name}")
    for name in (
        "behavior", "errors", "mc_oracle", "natural_history",
        "reproduction", "scenario", "survival",
    )
]


def test_package_surface_is_union_of_module_lists():
    # each module's __all__ is the one list of its public names
    union = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(hivbrn.__all__) == union
    assert len(hivbrn.__all__) == len(union)
    assert all(hasattr(hivbrn, name) for name in hivbrn.__all__)


def test_modules_list_only_their_own_names():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from hivbrn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hivbrn.__all__)
