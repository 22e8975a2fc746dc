"""PEP 562 lazy re-exports for the package facades.

A facade names, per submodule, the symbols it re-exports. Importing the
package imports none of them; a symbol's submodule is imported on the
first attribute access, and the value is then cached in the package
namespace. This keeps NumPy out of processes that only touch the
classical path (parsing, CDCL, the runtime and the service).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module path to the names the package re-exports
    from it; ``__all__`` lists those names in the order given.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
