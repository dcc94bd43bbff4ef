"""Categorization of potentially unnecessary computations (Figure 5).

The paper examines the function each non-slice instruction belongs to and
uses the *namespace* of the function as the basis for categorization
(Section V-B).  Instructions in functions without a namespace cannot be
categorized — which is why only 53-74% of non-slice instructions are
categorized per benchmark.

Categories (paper order): JavaScript, Debugging, IPC, Multi-threading,
Compositing, Graphics, CSS, Other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, not_
from typing import Dict, List, Optional, Tuple

from ..trace.store import TraceStore
from .slicer import SliceResult

#: Paper category names, in the order Figure 5 lists them.
CATEGORIES: Tuple[str, ...] = (
    "JavaScript",
    "Debugging",
    "IPC",
    "Multi-threading",
    "Compositing",
    "Graphics",
    "CSS",
    "Other",
)

#: Ordered (namespace prefix, category) rules.  First match wins, so more
#: specific prefixes come first.  The namespaces mirror Chromium's layout:
#: v8 is the JavaScript engine, cc the compositor, blink::paint/skia the
#: paint/raster graphics stack, blink::css/style/layout the style engine,
#: base::debug/trace_event the built-in debugging machinery, ipc/mojo the
#: inter-process communication layer, and base::synchronization +
#: base::threading the PThread-level multi-threading support.
NAMESPACE_RULES: Tuple[Tuple[str, str], ...] = (
    ("v8", "JavaScript"),
    ("blink::bindings", "JavaScript"),
    ("base::debug", "Debugging"),
    ("base::trace_event", "Debugging"),
    ("ipc", "IPC"),
    ("mojo", "IPC"),
    ("base::synchronization", "Multi-threading"),
    ("base::threading", "Multi-threading"),
    ("pthread", "Multi-threading"),
    ("cc", "Compositing"),
    ("blink::paint", "Graphics"),
    ("skia", "Graphics"),
    ("gfx", "Graphics"),
    ("blink::css", "CSS"),
    ("blink::style", "CSS"),
    ("blink::layout", "CSS"),
    ("base::message_loop", "Other"),
    ("base::task", "Other"),
    ("base::metrics", "Other"),
    ("blink::scheduler", "Other"),
)


def categorize_symbol(qualified_name: str) -> Optional[str]:
    """Category of a function name, or ``None`` when uncategorizable.

    Matching is on ``::``-separated namespace components, so the rule
    ``"cc"`` matches ``cc::TileManager::Run`` but not ``ccache_lookup``.
    As in the paper, only the namespaces hand-mapped to the eight
    categories are categorizable: plain C-style names (``memcpy``) and
    namespaces outside the mapping (``net::``, ``blink::html``) are not —
    which is why the paper could categorize only 53-74% of non-slice
    instructions per benchmark.
    """
    if "::" not in qualified_name:
        return None
    for prefix, category in NAMESPACE_RULES:
        if qualified_name == prefix or qualified_name.startswith(prefix + "::"):
            return category
    return None


@dataclass
class CategoryDistribution:
    """Distribution of non-slice instructions across paper categories."""

    #: category -> number of non-slice instructions
    counts: Dict[str, int]
    #: non-slice instructions whose function has no namespace
    uncategorized: int
    #: total non-slice instructions examined
    total_unnecessary: int

    @property
    def categorized(self) -> int:
        return self.total_unnecessary - self.uncategorized

    @property
    def categorized_fraction(self) -> float:
        """The paper's "results include X% of the benchmark" number."""
        if not self.total_unnecessary:
            return 0.0
        return self.categorized / self.total_unnecessary

    def share(self, category: str) -> float:
        """Share of ``category`` among *categorized* non-slice instructions."""
        if not self.categorized:
            return 0.0
        return self.counts.get(category, 0) / self.categorized

    def shares(self) -> List[Tuple[str, float]]:
        """(category, share) pairs in the paper's category order."""
        return [(cat, self.share(cat)) for cat in CATEGORIES]

    def dominant_category(self) -> str:
        return max(CATEGORIES, key=lambda cat: self.counts.get(cat, 0))


def categorize_unnecessary(
    store: TraceStore, result: SliceResult
) -> CategoryDistribution:
    """Categorize every instruction *outside* the slice by namespace."""
    # Pre-compute category per symbol id (symbols are few, records many).
    sym_category: List[Optional[str]] = [
        categorize_symbol(name) for _, name in store.symbols
    ]
    counts: Dict[str, int] = {cat: 0 for cat in CATEGORIES}
    uncategorized = 0
    outside = map(not_, result.flags)
    per_fn = Counter(compress(map(attrgetter("fn"), store.forward()), outside))
    for fn, count in per_fn.items():
        category = sym_category[fn]
        if category is None:
            uncategorized += count
        else:
            counts[category] += count
    total = sum(per_fn.values())
    return CategoryDistribution(
        counts=counts, uncategorized=uncategorized, total_unnecessary=total
    )
