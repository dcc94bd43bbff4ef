"""Tiles and composited layers (cc's tiling model).

Each composited layer owns a grid of 256x256 tiles covering its bounds;
each tile owns a pixel buffer of 16 abstract cells (one per 64x64 pixel
block).  Backing stores exist for every layer whether or not it is ever
shown — Chromium's compositing design pitfall the paper highlights.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...machine.memory import MemRegion
from ..context import EngineContext, PIXEL_BLOCK, TILE_SIZE
from ..layout.geometry import Rect
from ..paint.display_list import DisplayItem, PaintLayer

#: pixel cells per tile side (256 / 64 = 4; 16 cells per tile)
BLOCKS_PER_SIDE = TILE_SIZE // PIXEL_BLOCK


class Tile:
    """One 256x256 tile of a layer's backing store."""

    __slots__ = ("layer_id", "col", "row", "rect", "pixels", "rastered", "marked",
                 "dirty", "source_cell", "_ctx", "_lowres")

    def __init__(
        self, ctx: EngineContext, layer_id: int, col: int, row: int, rect: Rect
    ) -> None:
        self.layer_id = layer_id
        self.col = col
        self.row = row
        self.rect = rect
        self.pixels: MemRegion = ctx.memory.alloc(
            f"tilebuf:L{layer_id}:{col},{row}", BLOCKS_PER_SIDE * BLOCKS_PER_SIDE
        )
        #: the RasterSource reference written when the tile is scheduled
        #: (TileManager) and consumed by the raster worker.
        self.source_cell = ctx.memory.alloc_cell(f"cc:rastersrc:L{layer_id}:{col},{row}")
        self.rastered = False
        #: a TILE_MARKER was emitted for this tile's pixels
        self.marked = False
        #: content changed since last raster
        self.dirty = True
        self._ctx = ctx
        self._lowres: Optional[MemRegion] = None

    @property
    def lowres_pixels(self) -> MemRegion:
        """Low-resolution duplicate buffer (allocated on first use)."""
        if self._lowres is None:
            self._lowres = self._ctx.memory.alloc(
                f"tilebuf-lowres:L{self.layer_id}:{self.col},{self.row}", 4
            )
        return self._lowres

    def pixel_cells(self) -> Tuple[int, ...]:
        return self.pixels.all_cells()

    def block_cells_for(self, rect: Rect) -> Tuple[int, ...]:
        """Pixel-block cells covered by ``rect`` (document space)."""
        overlap = self.rect.intersection(rect)
        if overlap is None:
            return ()
        cells: List[int] = []
        for row in range(BLOCKS_PER_SIDE):
            for col in range(BLOCKS_PER_SIDE):
                block = Rect(
                    self.rect.x + col * PIXEL_BLOCK,
                    self.rect.y + row * PIXEL_BLOCK,
                    PIXEL_BLOCK,
                    PIXEL_BLOCK,
                )
                if block.intersects(overlap):
                    cells.append(self.pixels.cell(row * BLOCKS_PER_SIDE + col))
        return tuple(cells)

    def __repr__(self) -> str:
        return f"Tile(L{self.layer_id} {self.col},{self.row} {self.rect})"


def _grid_span(lo: float, hi: float, extent: Tuple[int, int]) -> range:
    """Grid indices within ``extent`` whose tiles may meet ``[lo, hi)``.

    Conservative by one tile on each side, so float rounding never drops
    a tile that :meth:`Rect.intersects` would accept; callers filter with
    the exact test.  A non-finite bound spans the whole extent.
    """
    first, last = extent
    try:
        start = math.floor(lo / TILE_SIZE) - 1
        stop = math.ceil(hi / TILE_SIZE)
    except (OverflowError, ValueError):
        return range(first, last + 1)
    return range(max(first, start), min(last, stop) + 1)


class CompositedLayer:
    """cc-side twin of a paint layer, with its backing-store tile grid."""

    def __init__(self, ctx: EngineContext, paint_layer: PaintLayer) -> None:
        self.ctx = ctx
        self.paint = paint_layer
        self.tiles: Dict[Tuple[int, int], Tile] = {}
        #: grid extent (first, last) of tile columns and rows; empty ranges
        #: while the layer has no tiles.
        self._cols = (0, -1)
        self._rows = (0, -1)
        self._cc_items: Tuple[Tuple[DisplayItem, int], ...] = ()
        #: (col, row) -> positions in ``cc_items`` of the items that may
        #: meet that tile, ascending; host-side bookkeeping, never traced
        #: (the traced spatial index is ``index_cell``).  Built on the
        #: first query after each commit.
        self._buckets: Optional[Dict[Tuple[int, int], List[int]]] = None
        #: cc-side property cells (transform/position), read at raster.
        self.property_cell = ctx.memory.alloc_cell(
            f"cc:props:L{paint_layer.layer_id}"
        )
        #: spatial display-item index built at commit, probed at raster.
        self.index_cell = ctx.memory.alloc_cell(
            f"cc:rtree:L{paint_layer.layer_id}"
        )
        #: tile-priority bookkeeping (scheduling-only state: read by the
        #: tile manager's decisions, never by pixel-producing code).
        self.priority_cell = ctx.memory.alloc_cell(
            f"cc:priority:L{paint_layer.layer_id}"
        )
        self._build_grid()

    def _build_grid(self) -> None:
        bounds = self.paint.bounds
        if bounds.is_empty():
            return
        col0 = int(bounds.x // TILE_SIZE)
        row0 = int(bounds.y // TILE_SIZE)
        col1 = int((bounds.right - 1) // TILE_SIZE)
        row1 = int((bounds.bottom - 1) // TILE_SIZE)
        self._cols = (col0, col1)
        self._rows = (row0, row1)
        for row in range(row0, row1 + 1):
            for col in range(col0, col1 + 1):
                rect = Rect(col * TILE_SIZE, row * TILE_SIZE, TILE_SIZE, TILE_SIZE)
                self.tiles[(col, row)] = Tile(
                    self.ctx, self.paint.layer_id, col, row, rect
                )

    @property
    def cc_items(self) -> Tuple[Tuple[DisplayItem, int], ...]:
        """cc-side copies of the display items with their cells, in paint
        order (committed from the main thread); raster reads these, not
        the blink-side originals.  Replaced wholesale at each commit."""
        return self._cc_items

    @cc_items.setter
    def cc_items(self, items: Sequence[Tuple[DisplayItem, int]]) -> None:
        self._cc_items = tuple(items)
        self._buckets = None

    def items_for_tile(self, tile: Tile) -> List[Tuple[DisplayItem, int]]:
        """Display items whose rect intersects ``tile``, one of this
        layer's tiles (spatial query), in ``cc_items`` order."""
        items = self._cc_items
        rect = tile.rect
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = self._bucket_items()
        return [
            items[pos]
            for pos in buckets[(tile.col, tile.row)]
            if items[pos][0].rect.intersects(rect)
        ]

    def _bucket_items(self) -> Dict[Tuple[int, int], List[int]]:
        buckets: Dict[Tuple[int, int], List[int]] = {key: [] for key in self.tiles}
        for pos, (item, _cc_cell) in enumerate(self._cc_items):
            r = item.rect
            cols = _grid_span(r.x, r.right, self._cols)
            for row in _grid_span(r.y, r.bottom, self._rows):
                for col in cols:
                    buckets[(col, row)].append(pos)
        return buckets

    def tiles_intersecting(self, rect: Rect) -> Iterator[Tile]:
        """Tiles meeting ``rect``, in grid (row-major) order."""
        tiles = self.tiles
        cols = _grid_span(rect.x, rect.right, self._cols)
        for row in _grid_span(rect.y, rect.bottom, self._rows):
            for col in cols:
                tile = tiles[(col, row)]
                if tile.rect.intersects(rect):
                    yield tile

    def tile_count(self) -> int:
        return len(self.tiles)

    def invalidate(self, rect: Rect) -> int:
        """Mark tiles intersecting ``rect`` dirty; returns how many."""
        count = 0
        # Dirty bits are tile-manager state shared with the raster path.
        with self.ctx.lock("cc:lock:tiles").held():
            for tile in self.tiles_intersecting(rect):
                tile.dirty = True
                count += 1
        return count

    def __repr__(self) -> str:
        return f"CompositedLayer({self.paint!r}, tiles={len(self.tiles)})"
