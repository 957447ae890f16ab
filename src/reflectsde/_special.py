"""The five ``scipy.special`` ufuncs the package calls (``ndtri``,
``gammainc``, ``gammaincc``, ``erf`` and ``erfc``), taken from the compiled
``scipy.special._ufuncs`` without running ``scipy/special/__init__.py``.

That ``__init__`` loads scipy's array-API layer, which imports
``numpy.f2py``, ``numpy.ma`` and ``numpy.testing``; nothing here uses them.
With ``python -X importtime`` on a 2-vCPU Xeon (Python 3.11, numpy 2.4,
scipy 1.17) it took about 0.24 s of the 0.37 s that ``import
reflectsde.cli`` took; ``scipy`` itself and ``_ufuncs`` with its compiled
helpers take about 0.02 s of that.

Importing ``scipy.special._ufuncs`` needs its parent in ``sys.modules``,
and an import of the parent runs its ``__init__``.  So, unless the real
package is loaded already, a bare module made from the package's own spec
(its ``__path__``, no code run) stands at ``sys.modules["scipy.special"]``
while ``_ufuncs`` is imported, and is removed in a ``finally``.  Meanwhile
this thread holds importlib's lock of ``scipy.special`` and the stub's
spec reads ``_initializing``, so an import of ``scipy.special`` in another
thread waits for the lock and then loads the real package, the lock order
(``scipy.special``, then its submodules) being the one that package's own
import takes.  An ``import`` statement that found the stub before waiting
still holds it afterwards; the stub hands such a thread the real package's
names through its module ``__getattr__``.

The ufuncs are bound from ``_ufuncs`` also when ``scipy.special`` is loaded
already, since under ``SCIPY_ARRAY_API=1`` its ``ndtri`` and the others are
Python wrappers: the objects bound here do not depend on the import order,
and are the ones ``scipy.special`` exports by default.  Where that private
path fails with ImportError (a scipy that moved it), they come from the
public ``from scipy.special import ...``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys

_PACKAGE = "scipy.special"


def _bind():
    """The five ufuncs, imported from ``scipy.special._ufuncs`` under a
    stub parent unless the real ``scipy.special`` is loaded."""
    from importlib._bootstrap import _ModuleLockManager

    with _ModuleLockManager(_PACKAGE):
        stub = None
        if _PACKAGE not in sys.modules:
            spec = importlib.util.find_spec(_PACKAGE)
            stub = importlib.util.module_from_spec(spec)

            def forward(name):
                package = importlib.import_module(_PACKAGE)
                if package is stub:  # this thread, while the stub stands
                    raise AttributeError(name)
                return getattr(package, name)

            stub.__getattr__ = forward
            # set before the stub is visible: importers that see it wait for the lock
            spec._initializing = True
            sys.modules[_PACKAGE] = stub
        try:
            from scipy.special._ufuncs import erf, erfc, gammainc, gammaincc, ndtri
        finally:
            if stub is not None:
                del sys.modules[_PACKAGE]
                spec._initializing = False
    return ndtri, gammainc, gammaincc, erf, erfc


try:
    ndtri, gammainc, gammaincc, erf, erfc = _bind()
except ImportError:
    from scipy.special import erf, erfc, gammainc, gammaincc, ndtri
