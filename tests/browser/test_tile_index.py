"""The compositor's grid-bucket index answers exactly like a linear scan.

``CompositedLayer.items_for_tile`` and ``tiles_intersecting`` look items
and tiles up through per-tile buckets instead of scanning every display
item or tile.  These tests compare both against the scan they replace on
random layers, with rects snapped to tile edges, degenerate and
non-finite rects, and commits that replace or splice the item list.
"""

from __future__ import annotations

import random

import pytest

from repro.browser.compositor.tiles import CompositedLayer
from repro.browser.context import TILE_SIZE, EngineContext
from repro.browser.layout.geometry import Rect
from repro.browser.paint.display_list import DisplayItem, PaintLayer


def _coord(rng: random.Random, limit: float) -> float:
    roll = rng.random()
    if roll < 0.4:
        return float(rng.randint(-1, int(limit // TILE_SIZE) + 1) * TILE_SIZE)
    if roll < 0.5:
        return rng.randint(-1, int(limit // TILE_SIZE) + 1) * TILE_SIZE + rng.choice((-1e-9, 1e-9))
    return rng.uniform(-TILE_SIZE, limit + TILE_SIZE)


def _size(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.3:
        return float(rng.randint(0, 4) * TILE_SIZE)
    if roll < 0.4:
        return rng.choice((0.0, -30.0, 1e-9))
    return rng.uniform(1, 3 * TILE_SIZE)


def _rect(rng: random.Random, width: float, height: float) -> Rect:
    if rng.random() < 0.03:
        return Rect(rng.choice((float("-inf"), 0.0)), 0.0, float("inf"), rng.choice((float("nan"), 50.0)))
    return Rect(_coord(rng, width), _coord(rng, height), _size(rng), _size(rng))


def _layer(rng: random.Random) -> CompositedLayer:
    width = float(rng.randint(1, 5) * TILE_SIZE - rng.choice((0, 17)))
    height = float(rng.randint(1, 7) * TILE_SIZE - rng.choice((0, 100)))
    origin = (rng.choice((0.0, 256.0, 100.5)), rng.choice((0.0, 512.0, 33.0)))
    paint = PaintLayer(
        layer_id=0, bounds=Rect(origin[0], origin[1], width, height), z_index=0, opaque=False
    )
    return CompositedLayer(EngineContext(), paint)


def _items(rng: random.Random, layer: CompositedLayer, n: int):
    bounds = layer.paint.bounds
    return [
        (DisplayItem("background", _rect(rng, bounds.right, bounds.bottom), ()), cell)
        for cell in range(n)
    ]


def _check(layer: CompositedLayer, rng: random.Random) -> None:
    for tile in layer.tiles.values():
        expected = [entry for entry in layer.cc_items if entry[0].rect.intersects(tile.rect)]
        assert layer.items_for_tile(tile) == expected
    bounds = layer.paint.bounds
    for _ in range(20):
        rect = _rect(rng, bounds.right, bounds.bottom)
        expected = [t for t in layer.tiles.values() if t.rect.intersects(rect)]
        assert list(layer.tiles_intersecting(rect)) == expected


@pytest.mark.parametrize("seed", range(40))
def test_index_matches_linear_scan(seed):
    rng = random.Random(seed)
    layer = _layer(rng)
    layer.cc_items = _items(rng, layer, rng.randint(0, 60))
    _check(layer, rng)
    # A fresh commit replaces the list; a splice replaces part of it.
    layer.cc_items = _items(rng, layer, rng.randint(0, 60))
    _check(layer, rng)
    items = layer.cc_items
    start = rng.randint(0, len(items))
    removed = rng.randint(0, len(items) - start)
    layer.cc_items = items[:start] + tuple(_items(rng, layer, rng.randint(0, 10))) + items[start + removed :]
    _check(layer, rng)


def test_items_are_replaced_not_mutated():
    rng = random.Random(3)
    layer = _layer(rng)
    layer.cc_items = _items(rng, layer, 5)
    assert isinstance(layer.cc_items, tuple)
