"""Metamorphic relations of the renderers and the loss on `GridSpec.centered` grids.

Mirror: x -> -x with the sun's azimuth -> -azimuth flips every raster left to right.
Transpose: x <-> y with azimuth -> 90 - azimuth transposes every raster.
Neither needs an oracle: a sign, an origin or a row/column order gone wrong breaks them.

The tolerances are four times the largest deviation measured over two batches of 300
random draws of these relations: hard renders identical pixel for pixel, soft renders within
1.5e-14 (a transposed soft shadow), `combined_loss`'s value within a relative 3e-16 and its
gradient within 1.3e-14.
Points are drawn from a seeded generator, so no point sits on a splat's edge to the
last ulp, where the mirrored pixel centers' own rounding could decide the test.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treerecon.core import Grid, GridSpec, PointCloud, SunConfig
from treerecon.diffrender import SoftConfig, _pass
from treerecon.losses import LossTargets, LossWeights, combined_loss
from treerecon.sensor import render_dsm, render_shadow_hard

SOFT_TOL = 4 * 1.5e-14
LOSS_REL_TOL = 4 * 3e-16
GRAD_TOL = 4 * 1.3e-14


class Mirror:
    @staticmethod
    def points(p):
        return p * np.array([-1.0, 1.0, 1.0])

    @staticmethod
    def azimuth(az):
        return -az

    @staticmethod
    def raster(values):
        return values[..., ::-1]


class Transpose:
    @staticmethod
    def points(p):
        return p[..., [1, 0, 2]]

    @staticmethod
    def azimuth(az):
        return 90.0 - az

    @staticmethod
    def raster(values):
        return np.swapaxes(values, -1, -2)


RELATIONS = st.sampled_from([Mirror, Transpose])


@st.composite
def scenes(draw):
    """(spec, positions, sun, splat radius, soft config, rng): 1-60 points on and around a
    centered 4-40 pixel grid, 0-10 m high, under any azimuth and an elevation of 5-90 degrees."""
    size, ps = draw(st.integers(4, 40)), draw(st.floats(0.1, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, extent = draw(st.integers(1, 60)), 0.6 * size * ps
    positions = np.column_stack([rng.uniform(-extent, extent, (n, 2)), rng.uniform(0.0, 10.0, n)])
    sun = SunConfig(draw(st.floats(-360.0, 360.0)), draw(st.floats(5.0, 90.0)))
    radius, sigma = draw(st.floats(0.3, 3.0)) * ps, draw(st.floats(0.3, 2.0)) * ps
    return GridSpec.centered(size, ps), positions, sun, radius, SoftConfig(sigma=sigma), rng


def moved(rel, positions, sun):
    return rel.points(positions), SunConfig(rel.azimuth(sun.azimuth_deg), sun.elevation_deg)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scene=scenes(), rel=RELATIONS)
def test_hard_renders_move_with_the_points_and_the_sun(scene, rel):
    spec, positions, sun, radius, _, _ = scene
    other, other_sun = moved(rel, positions, sun)
    assert np.array_equal(rel.raster(render_dsm(PointCloud(positions), spec, radius).values),
                          render_dsm(PointCloud(other), spec, radius).values)
    assert np.array_equal(rel.raster(render_shadow_hard(PointCloud(positions), sun, spec, radius).values),
                          render_shadow_hard(PointCloud(other), other_sun, spec, radius).values)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scene=scenes(), rel=RELATIONS, kind=st.sampled_from(["sil", "dsm", "shadow"]))
def test_soft_renders_move_with_the_points_and_the_sun(scene, rel, kind):
    spec, positions, sun, _, cfg, _ = scene
    other, other_sun = moved(rel, positions, sun)
    render = lambda p, s: _pass(kind, p, s, spec, cfg)[0].reshape(spec.height, spec.width)
    assert np.abs(rel.raster(render(positions, sun)) - render(other, other_sun)).max() <= SOFT_TOL


@settings(max_examples=100, derandomize=True, deadline=None)
@given(scene=scenes(), rel=RELATIONS)
def test_the_loss_and_its_gradient_move_with_the_scene(scene, rel):
    """Every term on, against random target rasters and a ground-truth cloud moved with the points:
    the same value, and the gradient's rows moved as the points are."""
    spec, positions, sun, _, cfg, rng = scene
    rasters = [rng.uniform(0.0, high, (spec.height, spec.width)) for high in (1.0, 1.0, 10.0)]
    m = len(positions) + 3
    gt = np.column_stack([rng.uniform(-5.0, 5.0, (m, 2)), rng.uniform(0.0, 10.0, m)])
    weights = LossWeights(1.0, 1.0, 0.5, 1.0)
    targets = LossTargets(*(Grid(spec, r) for r in rasters), PointCloud(gt))
    value, grad, _ = combined_loss(PointCloud(positions), targets, sun, spec, cfg, weights)
    other, other_sun = moved(rel, positions, sun)
    other_targets = LossTargets(*(Grid(spec, np.ascontiguousarray(rel.raster(r))) for r in rasters),
                                PointCloud(rel.points(gt)))
    other_value, other_grad, _ = combined_loss(PointCloud(other), other_targets, other_sun, spec, cfg, weights)
    assert abs(other_value - value) <= LOSS_REL_TOL * abs(value)
    assert np.abs(rel.points(grad) - other_grad).max() <= GRAD_TOL
