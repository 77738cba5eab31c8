"""Lazy package exports (PEP 562): a name's module loads on first read."""

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``, where ``table`` maps a
    module (relative to ``package``) to the space-separated names it
    exports.  A name read once is bound in the package, so later reads
    skip ``__getattr__``."""
    homes = {name: module for module, names in table.items()
             for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in homes:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module("." + homes[name], package), name)
        namespace[name] = value
        return value

    return sorted(homes), __getattr__
