"""``reflectsde._special``: the five scipy.special ufuncs bound from the
compiled ``scipy.special._ufuncs`` without the package's ``__init__``.
Every test runs in a fresh interpreter, since the binding happens once, at
the package's first import."""

import math

import numpy as np
import pytest
import scipy.special

from conftest import fresh_interpreter

_NAMES = ("ndtri", "gammainc", "gammaincc", "erf", "erfc")

_BOUND = """
import json, sys
import numpy as np
%s
from reflectsde import _special
import scipy
names = %r
out = {"package_loaded": "scipy.special" in sys.modules,
       "scipy_attr": vars(scipy).get("special") is not None}
import scipy.special as sp
out["ufuncs"] = [isinstance(getattr(_special, n), np.ufunc) for n in names]
out["same"] = [getattr(_special, n) is getattr(sp, n) for n in names]
out["raw"] = [getattr(_special, n) is getattr(sp._ufuncs, n) for n in names]
out["real"] = (sys.modules["scipy.special"] is sp and vars(scipy)["special"] is sp
               and hasattr(sp, "gamma") and sp.__file__.endswith("__init__.py"))
out["wrapped"] = not isinstance(sp.ndtri, np.ufunc)
print(json.dumps(out))
"""


@pytest.mark.parametrize("scipy_first", (False, True), ids=("package-first", "scipy-first"))
def test_binds_the_raw_ufuncs_in_either_import_order(scipy_first, tmp_path):
    out = fresh_interpreter(_BOUND % ("import scipy.special" if scipy_first else "", _NAMES),
                            tmp_path)
    assert out["ufuncs"] == out["same"] == out["raw"] == [True] * 5
    assert out["real"]
    # importing the package alone neither loads scipy.special nor leaves
    # the stub in sys.modules or in scipy's namespace
    assert out["package_loaded"] == out["scipy_attr"] == scipy_first


@pytest.mark.parametrize("scipy_first", (False, True), ids=("package-first", "scipy-first"))
def test_array_api_mode_still_binds_the_raw_ufuncs(scipy_first, tmp_path):
    out = fresh_interpreter(_BOUND % ("import scipy.special" if scipy_first else "", _NAMES),
                            tmp_path, env={"SCIPY_ARRAY_API": "1"})
    assert out["wrapped"]  # scipy.special.ndtri is a Python wrapper in this mode
    assert out["ufuncs"] == out["raw"] == [True] * 5
    assert out["real"]


_FAILING_STUB = """
import json, sys
import scipy

class Refuse:
    # refuses the first import of scipy.special._ufuncs, the stub's
    refused = False

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not self.refused:
            self.refused = True
            raise %s("refused under the stub")
        return None

sys.meta_path.insert(0, Refuse())
out = {}
try:
    from reflectsde import _special
except RuntimeError as exc:
    out["raised"] = str(exc)
out["left"] = sys.modules.get("scipy.special") is not None
out["in_scipy"] = vars(scipy).get("special") is not None
import scipy.special as sp
out["real"] = hasattr(sp, "gamma") and sp.__file__.endswith("__init__.py")
if "raised" not in out:
    out["same"] = [getattr(_special, n) is getattr(sp, n) for n in %r]
    out["values"] = [_special.ndtri(0.3), _special.gammainc(1.5, 2.0),
                     _special.gammaincc(1.5, 2.0), _special.erf(0.7), _special.erfc(0.7)]
print(json.dumps(out))
"""


def test_failed_stub_import_takes_the_public_fallback(tmp_path):
    out = fresh_interpreter(_FAILING_STUB % ("ImportError", _NAMES), tmp_path)
    # the fallback imported the real package, in place of the stub
    assert out["left"] and out["in_scipy"] and out["real"]
    assert out["same"] == [True] * 5
    assert out["values"] == [scipy.special.ndtri(0.3), scipy.special.gammainc(1.5, 2.0),
                             scipy.special.gammaincc(1.5, 2.0), scipy.special.erf(0.7),
                             scipy.special.erfc(0.7)]


def test_other_errors_propagate_and_remove_the_stub(tmp_path):
    out = fresh_interpreter(_FAILING_STUB % ("RuntimeError", _NAMES), tmp_path)
    assert out["raised"] == "refused under the stub"
    assert not out["left"] and not out["in_scipy"]
    assert out["real"]


_EDGES = """
import json, math, sys, warnings
import numpy as np
from reflectsde import _special
inf, nan = math.inf, math.nan
unary = [nan, inf, -inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e-300, 40.0, -40.0]
pairs = [(a, x) for a in (nan, inf, -1.0, 0.0, 1e-300, 0.5, 3.0)
         for x in (nan, inf, -inf, -1.0, 0.0, 0.5, 3.0)]

def run(module):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        values = {n: [repr(float(getattr(module, n)(v))) for v in unary]
                  for n in ("ndtri", "erf", "erfc")}
        for n in ("gammainc", "gammaincc"):
            values[n] = [repr(float(getattr(module, n)(a, x))) for a, x in pairs]
            values[n + " array"] = repr(getattr(module, n)(*np.array(pairs).T).tolist())
        values["ndtri array"] = repr(module.ndtri(np.array(unary)).tolist())
    return values, [(w.category.__name__, str(w.message)) for w in seen]

stub_values, stub_warnings = run(_special)
unloaded = "scipy.special" not in sys.modules
import scipy.special
print(json.dumps({"unloaded": unloaded, "stub": [stub_values, stub_warnings],
                  "scipy": list(run(scipy.special))}))
"""


def test_edge_inputs_give_scipys_values_and_warnings(tmp_path):
    out = fresh_interpreter(_EDGES, tmp_path)
    assert out["unloaded"]
    assert out["stub"] == out["scipy"]
    values = out["stub"][0]
    # the special values themselves, from scipy.special in this process
    assert values["ndtri"][:4] == [repr(float(scipy.special.ndtri(v)))
                                   for v in (math.nan, math.inf, -math.inf, -1.0)]
    assert values["erf"][1:3] == ["1.0", "-1.0"] and values["erfc"][1:3] == ["0.0", "2.0"]


_RACE = """
import importlib._bootstrap, importlib.machinery, json, sys, threading, time
import numpy, scipy
out = {}
stub_up = threading.Event()

class Held:
    # the extension loader of _ufuncs, run by the second thread while the
    # stub stands: lets the first thread see the stub, then holds it up
    # until that thread waits on the module lock of scipy.special
    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        stub_up.set()
        lock = importlib._bootstrap._module_locks["scipy.special"]()
        deadline = time.monotonic() + 60
        while not lock.waiters and time.monotonic() < deadline:
            time.sleep(0.001)
        out["blocked"] = bool(lock.waiters)
        return self.loader.create_module(spec)

    def exec_module(self, module):
        self.loader.exec_module(module)

class HoldStub:
    # finders run under the global import lock, so the hold is in the loader
    def find_spec(self, name, path=None, target=None):
        if name != "scipy.special._ufuncs" or stub_up.is_set():
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        spec.loader = Held(spec.loader)
        return spec

def first():
    stub_up.wait()
    seen = sys.modules.get("scipy.special")
    out["saw_stub"] = seen is not None and "gamma" not in vars(seen)
    %s
    import scipy.special as sp
    out["real"] = (sys.modules["scipy.special"] is sp and "gamma" in vars(sp)
                   and sp.__file__.endswith("__init__.py") and vars(scipy)["special"] is sp)
    out["gamma"] = float(gamma(5.0))

def second():
    try:
        import reflectsde
        out["bound"] = (sys.modules["reflectsde._special"].ndtri
                        is sys.modules["scipy.special._ufuncs"].ndtri)
    finally:
        stub_up.set()  # releases the first thread if the stub never stood

sys.meta_path.insert(0, HoldStub())
threads = [threading.Thread(target=first), threading.Thread(target=second)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
out["finished"] = not any(t.is_alive() for t in threads)
print(json.dumps(out))
"""

# How the first thread imports: each form reaches the stub differently
# (an import statement keeps the module it found before waiting on the lock).
_FORMS = {
    "from": "from scipy.special import gamma",
    "import-as": "import scipy.special as sp; gamma = sp.gamma",
    "import": "import scipy.special; gamma = scipy.special.gamma",
    "import_module": "import importlib; gamma = importlib.import_module('scipy.special').gamma",
}


@pytest.mark.parametrize("form", _FORMS)
def test_a_concurrent_importer_gets_the_real_package(form, tmp_path):
    # the first thread meets the stub and imports scipy.special while the
    # second thread's import of _ufuncs is held under it
    out = fresh_interpreter(_RACE % _FORMS[form], tmp_path)
    assert out["finished"]
    assert out["saw_stub"] and out["blocked"]
    assert out["real"] and out["gamma"] == 24.0 and out["bound"]
