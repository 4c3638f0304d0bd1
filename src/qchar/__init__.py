"""Exact symbolic toolkit for quantum product and character computations.

Everything runs over the rationals with explicit Novikov-variable
truncation; no floating point anywhere.
"""

__version__ = "0.1.0"

from .core import NovikovSeries, Polynomial, VariableSet
from .quotient import AlgebraElement, PresentedAlgebra
from .catalog import ring
from .chern import QuantumChernMap, build_qch
from .parse import ParseError, parse_element


def clear_caches() -> None:
    """Drop every cached ring, with its product table, and every Jacobi context.

    The joined variable sets and the mirror's relation caches go too.  Rings and
    membership contexts are cached per process and never
    evicted; a long-running program calls this to free them.  Rings
    built afterwards are new objects; elements of a dropped ring keep
    working with it.
    """
    from . import catalog, core, mirror
    catalog._RING_CACHE.clear()
    mirror._CONTEXT_CACHE.clear()
    mirror.jacobi_relations.cache_clear()
    mirror.flag_relation_images.cache_clear()
    core.joined_vars.cache_clear()


__all__ = [
    "__version__",
    "AlgebraElement",
    "NovikovSeries",
    "ParseError",
    "Polynomial",
    "PresentedAlgebra",
    "QuantumChernMap",
    "VariableSet",
    "build_qch",
    "clear_caches",
    "parse_element",
    "ring",
]
