"""The per-path draw stream: finite normals and uniforms in (0, 1], the
range the fine-step stepper takes its inputs from."""

import numpy as np

from reflectsde import rng


def _in_range(normals, uniforms):
    return bool(np.isfinite(normals).all() and (uniforms > 0.0).all()
                and (uniforms <= 1.0).all())


def test_path_draws_are_finite_normals_and_uniforms_in_range():
    normals, uniforms = rng.path_draws(rng.derive_seed(7, 1), 20_000)
    assert normals.shape == uniforms.shape == (20_000,)
    assert _in_range(normals, uniforms)


def test_clamped_extremes_of_the_generator(monkeypatch):
    # the generator's raw range is [0, 1): its two ends, in both columns
    top = 1.0 - 2.0**-53
    raw = np.array([[0.0, 0.0], [top, top], [0.0, top], [top, 0.0]])

    class Stub:
        def random(self, *, out):
            assert out.shape == raw.shape
            out[...] = raw
            return out

    monkeypatch.setattr(rng, "generator", lambda seed: Stub())
    normals, uniforms = rng.path_draws(0, len(raw))
    assert _in_range(normals, uniforms)
    assert uniforms.tolist() == [1.0, 2.0**-53, 2.0**-53, 1.0]
    # 0 maps to the largest normal, the top of the range to its mirror image
    assert normals[0] == -normals[1] > 8.0


def test_stream_filled_in_blocks_equals_the_whole():
    # three blocks of a reused buffer, the last one partial
    count, size, scale = 10_000, 4096, 0.3
    normals, uniforms = rng.path_draws(11, count)
    gen = rng.generator(11)
    u, z, us = np.empty((size, 2)), np.empty(size), np.empty(size)
    got_z, got_u = [], []
    for start in range(0, count, size):
        rows = min(size, count - start)
        rng.fill_draws(gen, u[:rows], z[:rows], us[:rows], scale)
        got_z.append(z[:rows].copy())
        got_u.append(us[:rows].copy())
    assert np.concatenate(got_z).tobytes() == (normals * scale).tobytes()
    assert np.concatenate(got_u).tobytes() == uniforms.tobytes()
