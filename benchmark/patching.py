"""Rebind names inside the loaded ``dunkl_lab`` modules and restore them.

Both the tracer and the fault injections work only this way: they replace
an object in every package namespace that binds it (``cli`` and
``inequalities`` import many names directly), and never edit package files.
"""

from __future__ import annotations

import sys


def package_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "dunkl_lab" or name.startswith("dunkl_lab."))
    ]


class Patches:
    """Records every rebinding so that ``restore`` can undo all of them."""

    def __init__(self):
        self._undo = []

    def rebind(self, original, replacement, namespaces=None):
        """Bind ``replacement`` wherever ``original`` is bound, in the given
        namespaces (modules or classes; all package modules by default)."""
        count = 0
        for ns in namespaces if namespaces is not None else package_modules():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._undo.append((ns, attr, original))
                    count += 1
        if not count:
            raise LookupError(f"{original!r} is not bound in {namespaces!r}")

    def restore(self):
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)
