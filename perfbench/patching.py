"""Swap currentrep functions for wrappers inside the benchmark process, and back."""

from __future__ import annotations

import sys


class Patches:
    """Every replacement made, so :meth:`undo` restores the originals."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, key, value):
        """Set a module or class attribute, or a dict entry."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def function(self, modname, attr, make_wrapper):
        """Rebind ``modname.attr`` to ``make_wrapper(original)`` in every loaded
        currentrep module that bound it by name, so ``from .x import f`` call
        sites see the wrapper too."""
        orig = getattr(sys.modules[modname], attr)
        wrapped = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if name == "currentrep" or name.startswith("currentrep."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.replace(mod, key, wrapped)

    def undo(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()
