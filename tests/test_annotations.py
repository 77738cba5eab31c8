"""Every annotation in the simulator proper resolves at run time.

The modules use ``from __future__ import annotations``, so an annotation
naming something never imported only fails when a tool such as
``typing.get_type_hints`` evaluates it.
"""

import importlib
import inspect
import pkgutil
import typing

PACKAGES = ("repro.net", "repro.mptcp", "repro.core")


def _modules():
    for name in PACKAGES:
        package = importlib.import_module(name)
        yield package
        for info in pkgutil.walk_packages(package.__path__, name + "."):
            yield importlib.import_module(info.name)


def _callables():
    """``(qualified name, function)`` for every function and method
    defined in the packages, properties' getters and setters included."""
    for module in _modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    functions = ((attr.fget, attr.fset)
                                 if isinstance(attr, property) else (attr,))
                    for function in functions:
                        if inspect.isfunction(function):
                            yield (f"{module.__name__}."
                                   f"{function.__qualname__}", function)


def test_every_annotation_resolves():
    functions = dict(_callables())
    assert "repro.net.tcp.TcpState.pinned_rate" in functions
    assert "repro.mptcp.connection.MptcpConnection._solve_span" in functions
    unresolved = []
    for name, function in sorted(functions.items()):
        try:
            typing.get_type_hints(function)
        except NameError as error:
            unresolved.append(f"{name}: {error}")
    assert unresolved == []
