"""Reproducible seed derivation and per-path random draw streams.

One root seed drives an experiment.  Stream seeds for individual paths or
replications are derived with a splitmix-style mixer, so disjoint index
tuples give statistically independent generators and the same tuple always
gives the same stream.  Bit-reproducibility is guaranteed within this
package only, not across implementations.
"""

from __future__ import annotations

import numpy as np

from ._special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Largest double strictly below 1.0; clamping here keeps the inverse normal
# CDF finite on the closed draw range.
_ONE_MINUS_ULP = 1.0 - 2.0**-53


def _mix(z: int) -> int:
    """splitmix64 finalizer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(root: int, *indices: int) -> int:
    """Derive a 64-bit stream seed from a root seed and an index tuple."""
    state = _mix(int(root) & _MASK64)
    for ix in indices:
        state = _mix(state ^ _mix(int(ix) & _MASK64))
    return state


def generator(seed: int) -> np.random.Generator:
    """A fresh PCG64 generator for the given stream seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def fill_draws(
    gen: np.random.Generator, u: np.ndarray, normals: np.ndarray,
    uniforms: np.ndarray, scale: float = 1.0,
) -> None:
    """Fill ``normals`` and ``uniforms`` with the draws of the next
    ``len(normals)`` fine steps of ``gen``, through the (len, 2) buffer
    ``u``; the standard normals are multiplied by ``scale``.

    Per fine step, two uniforms are consumed in a fixed order: the first is
    mapped through the inverse normal CDF to the Gaussian increment, the
    second is kept as the uniform in (0, 1] used by the bridge-minimum
    sampler.  Filling consecutive blocks consumes the stream as one call
    for all of them would, so a path drawn block by block has the same bits
    as one drawn whole.  Every pass writes into the given arrays, which a
    caller reusing them keeps in the cache.
    """
    gen.random(out=u)
    np.subtract(1.0, u[:, 0], out=normals)
    np.minimum(normals, _ONE_MINUS_ULP, out=normals)
    ndtri(normals, out=normals)
    np.multiply(normals, scale, out=normals)
    np.subtract(1.0, u[:, 1], out=uniforms)


def path_draws(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the random inputs of a path of ``count`` fine steps in one
    block of :func:`fill_draws`.  Simulation draws the same stream in
    blocks of whole observation intervals instead (see
    :func:`reflectsde.simulate._simulate`); this gives the whole of it at
    once.

    Returns
    -------
    normals : ndarray, shape (count,)
        Standard normal draws.
    uniforms : ndarray, shape (count,)
        Uniform draws in (0, 1].
    """
    normals, uniforms = np.empty(count), np.empty(count)
    fill_draws(generator(seed), np.empty((count, 2)), normals, uniforms)
    return normals, uniforms
