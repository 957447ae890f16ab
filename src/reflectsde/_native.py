"""Build, cache and load the compiled library ``_stepper.c``: the
fine-step kernel ``reflect_path``; ``contrast_residuals``, the residuals
of the least-squares contrast for a mean-reversion or shifted-covariate
drift in one pass, fixed once per search by a :class:`Contrast`;
``check_path``, which makes every check of ``SamplePath.validate`` in one
pass over the path and writes its increments; the CSV row reader
``read_rows``, which scans digits eight at a time and converts a field of
up to 19 significant digits by the Eisel-Lemire algorithm, or Clinger's
exact quotient, and any other by ``strtod``, to the bits of
``np.loadtxt``; and its twin ``write_rows``, which writes rows as
``simulate.write_csv`` does, every value as ``{:.17g}``: a zero, or a
finite value of magnitude in [1e-16, 1e17), by exact 128-bit integer
arithmetic (the 17 digits of m 5^s 2^(e + s) for v = m 2^e and
s = 16 - floor(log10 |v|), rounded half to even), and it hands back a
block that holds any other value, and every block on a build without
``__int128``, for ``write_csv`` to format in Python.  ``reflect_path``
calls a custom drift ``f(x, theta)`` directly, with the caller's
``theta`` object, and converts its result in C unless it is one of
:data:`COMPLEX_TYPES`, and ``check_path`` reads the
path's arrays through the buffer protocol, through eleven functions, one
exception, one type and ``None`` of CPython's stable ABI
(``PyFloat_FromDouble``, ``PyObject_CallFunctionObjArgs``,
``PyObject_IsInstance``, ``PyFloat_AsDouble``, ``PyErr_Occurred``,
``PyErr_ExceptionMatches``, ``PyErr_Clear``, ``Py_IncRef``,
``Py_DecRef``, ``PyObject_GetBuffer``, ``PyBuffer_Release``,
``PyExc_TypeError``, ``PyFloat_Type`` and ``_Py_NoneStruct``), which the
library declares itself and resolves from the interpreter that loads it:
the build needs no Python headers, and the cached library does not depend
on the Python version.

The library is compiled on first use, never at import, with the C compiler
on ``PATH`` and cached as
``${XDG_CACHE_HOME:-~/.cache}/reflectsde/stepper-<digest>.so``, where the
digest is the sha256 of the source and the flags.  A cache directory that
cannot be written gives way to a temporary one.  Each cached library ends
with the sha256 of its own bytes, so a truncated or damaged file is rebuilt
rather than loaded.  Without a compiler, when the build fails, or where the
loading interpreter does not export those symbols, :func:`load`
returns None and warns once per process; simulation then runs
on the Python stepper, path CSVs are read by ``np.loadtxt`` and written by
``str.format``, and paths are validated by numpy, which give the same bits
and errors.  Loading a cached library sets its mtime, and building one removes the other
``stepper-*.so`` files of its cache directory that no process has loaded
for 30 days: older sources or flags left them there, while the library of
another version in use stays.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_stepper.c")
# -ffp-contract=off keeps a*b + c two roundings, as in Python; no
# -ffast-math and no -march=native for the same reason
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_DIGEST_BYTES = 32
# a build removes the cached libraries of other versions unused this long
UNUSED_FOR_S = 30 * 24 * 3600
_LOCK = threading.Lock()
# A custom drift's result of one of these types is not a real number,
# though PyFloat_AsDouble (and math.ldexp) would keep the real part of a
# numpy.complex64, complex128 or clongdouble.  A type that merely defines
# __complex__ is not refused: a 0-d ndarray, Fraction or Decimal is real.
COMPLEX_TYPES = (complex, np.complexfloating)


def find_compiler() -> str | None:
    """The C compiler to build with, or None."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "reflectsde"


def library_name() -> str:
    import hashlib

    key = SOURCE.read_bytes() + " ".join(FLAGS).encode()
    return f"stepper-{hashlib.sha256(key).hexdigest()[:16]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the sha256 of the bytes before it."""
    import hashlib

    data = path.read_bytes()
    body, tail = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    return len(data) > _DIGEST_BYTES and hashlib.sha256(body).digest() == tail


def _build(compiler: str, dest: Path) -> None:
    """Compile into a temporary file beside ``dest``, append its digest
    (the loader ignores trailing bytes) and move it into place."""
    import hashlib
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=".stepper-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                       check=True, capture_output=True, text=True)
        with open(tmp, "r+b") as fh:
            fh.write(hashlib.sha256(fh.read()).digest())
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(keep: Path) -> None:
    """Remove the libraries beside ``keep`` that no process has loaded for
    ``UNUSED_FOR_S``: other sources or flags built them, and a library that
    another version still loads is kept.  One that cannot be removed stays."""
    for old in keep.parent.glob("stepper-*.so"):
        try:
            if old != keep and time.time() - old.stat().st_mtime > UNUSED_FOR_S:
                old.unlink()
        except OSError:
            pass


class Contrast(ctypes.Structure):
    """``struct contrast`` of ``_stepper.c``: the addresses of the residual
    buffer, of the increments dx, dl and dr and of the left endpoints x;
    the number of intervals, the drift code, the step h and the shifted
    covariate c."""

    _fields_ = [("res", ctypes.c_void_p), ("dx", ctypes.c_void_p), ("dl", ctypes.c_void_p),
                ("dr", ctypes.c_void_p), ("x", ctypes.c_void_p), ("n", ctypes.c_long),
                ("kind", ctypes.c_int), ("h", ctypes.c_double), ("c", ctypes.c_double)]


def _open(path: Path):
    """The library, with the C signatures of ``reflect_path``,
    ``contrast_residuals`` (the address of a :class:`Contrast` and theta),
    ``read_rows`` and ``write_rows``; ``reflect_path_with_gil``:
    ``reflect_path`` called with the GIL held, for a custom drift, which the kernel calls through
    the Python C API; ctypes raises what the drift raised once it returns;
    and ``check_path``, also called with the GIL held, which it needs to
    take the buffers of the arrays it is passed.
    The library's complex types are set to :data:`COMPLEX_TYPES`.
    Raises OSError where the loading interpreter does not provide the C API
    symbols the library names."""
    lib = ctypes.CDLL(str(path))
    dbl, ptr, long_ = ctypes.c_double, ctypes.c_void_p, ctypes.c_long
    # the last three arguments are the custom drift f and the theta object
    # it is called with (None for the others), and where the kernel stores
    # the fine step at which it raised
    args = [ctypes.c_int, dbl, dbl, ptr, ptr, ptr, long_, long_, long_, dbl, dbl, dbl, dbl,
            ctypes.c_int, ptr, ptr, ptr, ptr, ptr, ptr, ctypes.py_object, ctypes.py_object,
            ctypes.POINTER(long_)]
    lib.reflect_path.argtypes = args
    lib.reflect_path.restype = long_
    lib.reflect_path_with_gil = ctypes.PYFUNCTYPE(long_, *args)(("reflect_path", lib))
    ctypes.PYFUNCTYPE(None, ctypes.py_object)(("set_complex_types", lib))(COMPLEX_TYPES)
    lib.contrast_residuals.argtypes = [ptr, dbl]
    lib.contrast_residuals.restype = None
    lib.read_rows.argtypes = [ctypes.c_char_p, long_, long_, ptr, long_]
    lib.read_rows.restype = long_
    lib.write_rows.argtypes = [ptr, long_, long_, ptr, long_]
    lib.write_rows.restype = long_
    obj = ctypes.py_object
    lib.check_path = ctypes.PYFUNCTYPE(ctypes.c_int, long_, obj, obj, obj, obj, obj, dbl, dbl,
                                       ctypes.c_int, obj, obj, obj)(("check_path", lib))
    return lib


def _built(compiler: str, directory: Path) -> Path:
    """The intact library of this source and these flags in ``directory``,
    built there unless it already is.  Raises OSError where the directory
    cannot be made or written."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / library_name()
    if path.is_file() and _intact(path):
        try:
            # the time of the last load, which _prune reads
            os.utime(path)
        except OSError:
            pass
    else:
        _build(compiler, path)
        _prune(path)
    return path


@functools.cache
def _load():
    import contextlib
    import subprocess
    import tempfile

    compiler = find_compiler()
    reason = "no C compiler (cc or gcc) on PATH"
    if compiler is not None:
        try:
            with contextlib.ExitStack() as stack:
                try:
                    path = _built(compiler, cache_dir())
                except OSError:
                    # an unwritable cache directory: build where we can write,
                    # and remove it once the library is loaded
                    tmp = stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="reflectsde-"))
                    path = _built(compiler, Path(tmp))
                try:
                    return _open(path)
                except OSError as exc:
                    # a library that built is not built again: the second
                    # copy would not load either
                    reason = f"loading {path.name} failed: {exc}"
        except subprocess.CalledProcessError as exc:
            reason = f"{compiler} failed: {exc.stderr.strip()}"
        except OSError as exc:
            reason = f"building with {compiler} failed: {exc}"
    warnings.warn(f"reflectsde: {reason}; paths run on the Python stepper "
                  "(the same paths, 6 to 14 times slower for the built-in "
                  "drifts and about 3.3 times slower for custom ones), path CSVs "
                  "are read by np.loadtxt and written by str.format, and paths are "
                  "validated by numpy rather than check_path", RuntimeWarning, stacklevel=2)
    return None


def load():
    """The compiled library (``reflect_path``, ``contrast_residuals``,
    ``check_path``, ``read_rows`` and ``write_rows``), built or loaded on
    the first call, or None when it cannot be built."""
    with _LOCK:
        return _load()
