"""Lazy public names for package ``__init__`` modules (PEP 562).

A package lists its public names in one table, name -> defining module,
and :func:`lazy_exports` turns that table into the package's module-level
``__getattr__`` and ``__dir__``.  A name's module is imported the first
time the name is used, so ``import repro.serve.client`` loads only what
the client needs, while ``from repro import run_scheme`` still works.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` resolving ``exports`` for ``package``.

    ``exports`` maps each public name to the module that defines it; a
    name that maps to ``<package>.<name>`` is that submodule itself.  A
    resolved name is stored in the package namespace, so the hook runs
    once per name.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name)
        value = (module if module_name == f"{package}.{name}"
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
