"""DASH rate-adaptation algorithms: GPAC, FESTIVE, BBA-2, BBA-C, MPC."""

import sys
from typing import TYPE_CHECKING, List

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import AbrAlgorithm

__all__, __getattr__ = lazy_exports(__name__, {
    "base": "AbrAlgorithm AbrContext BUFFER_BASED HYBRID THROUGHPUT_BASED",
    "bba": "Bba",
    "bba_c": "BbaC",
    "festive": "Festive",
    "gpac": "Gpac",
    "mpc": "Mpc",
})
__all__ += ["abr_names", "make_abr"]

#: Table name -> class name; a class's module is imported the first time
#: one of its names is made (and the class then stays bound here).
_ALGORITHMS = {"gpac": "Gpac", "festive": "Festive", "bba": "Bba",
               "bba-c": "BbaC", "mpc": "Mpc", "robust-mpc": "Mpc"}


def make_abr(name: str, **kwargs) -> "AbrAlgorithm":
    """Instantiate an ABR algorithm by its table name."""
    try:
        cls = getattr(sys.modules[__name__], _ALGORITHMS[name])
    except KeyError:
        known = ", ".join(sorted(_ALGORITHMS))
        raise ValueError(f"unknown ABR algorithm {name!r} "
                         f"(known: {known})") from None
    if name == "robust-mpc":
        kwargs.setdefault("robust", True)
    return cls(**kwargs)


def abr_names() -> List[str]:
    return sorted(_ALGORITHMS)
