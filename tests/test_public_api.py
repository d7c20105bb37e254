"""The package surface: each module's ``__all__``, re-exported once."""

import importlib
import types

import negpolylog

REEXPORTED = ("algebra", "circular", "combinatorics", "errors", "hyperbolic", "inverse", "jets",
              "ladder", "polylog", "reports")


def module(name):
    return importlib.import_module(f"negpolylog.{name}")


def test_every_module_name_is_the_same_object_on_the_package():
    exported = set()
    for name in REEXPORTED:
        for attr in module(name).__all__:
            assert getattr(negpolylog, attr) is getattr(module(name), attr), (name, attr)
            exported.add(attr)
    public = {k for k, v in vars(negpolylog).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == exported


def test_no_name_is_declared_by_two_modules():
    seen = {}
    for name in REEXPORTED:
        for attr in module(name).__all__:
            assert attr not in seen, f"{attr} is in both {seen[attr]} and {name}"
            seen[attr] = name


def test_errors_and_reports_declare_their_api():
    assert "__all__" in vars(module("errors"))
    assert "__all__" in vars(module("reports"))
