"""Decision-region diagnostics: adjacency graphs and quality metrics.

Tools to *inspect* a sampled decision-region diagram before trusting the
extraction built on it:

* :func:`region_adjacency_graph` — the region graph (networkx): one node
  per present label (with area/centroid attributes), one edge per pair of
  regions sharing a boundary (with boundary sample counts);
* :func:`labeling_consistency` — fraction of adjacent region pairs whose
  labels differ in exactly one bit.  For a well-trained demapper on a
  Gray-labelled constellation this is ≈ 1; a collapse in this metric means
  the network learned a broken labeling (extraction will inherit it);
* :func:`region_connectedness` — fraction of regions that are a single
  connected component.  ANN decision regions can fragment (islands of one
  label inside another); fragmented regions make all centroid estimators
  unreliable, so the adaptive loop should treat low connectedness as a
  retrain-quality failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.extraction.decision_regions import DecisionRegionGrid
from repro.extraction.voronoi import boundary_midpoints

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["region_adjacency_graph", "labeling_consistency", "region_connectedness"]


def region_adjacency_graph(grid: DecisionRegionGrid) -> nx.Graph:
    """Build the region-adjacency graph of a decision-region diagram.

    Nodes are the present labels with attributes ``area`` (fraction of the
    window) and ``centroid`` (mass centroid, complex).  Edges connect
    regions that share at least one boundary sample, weighted by the number
    of boundary samples (``weight``), a proxy for shared-boundary length.
    """
    import networkx as nx  # deferred: keeps networkx out of `import repro`

    g = nx.Graph()
    labels = grid.present_labels
    pts = grid.points()
    flat = grid.labels.ravel()
    total = flat.size
    for label in labels.tolist():
        sel = flat == label
        mass = pts[sel].mean(axis=0)
        g.add_node(
            int(label),
            area=float(np.count_nonzero(sel) / total),
            centroid=complex(mass[0], mass[1]),
        )
    _, pairs = boundary_midpoints(grid)
    if pairs.shape[0]:
        ordered = np.sort(pairs, axis=1)
        uniq, counts = np.unique(ordered, axis=0, return_counts=True)
        for (a, b), w in zip(uniq.tolist(), counts.tolist()):
            g.add_edge(int(a), int(b), weight=int(w))
    return g


def labeling_consistency(grid: DecisionRegionGrid, bits_per_symbol: int) -> float:
    """Fraction of adjacent region pairs differing in exactly one bit.

    The spatial analogue of the Gray property: on a sane demapper, crossing
    one decision boundary flips one bit.  Weighted by shared-boundary
    length so long boundaries (which dominate the error rate) count more.
    """
    if bits_per_symbol < 1:
        raise ValueError("bits_per_symbol must be >= 1")
    g = region_adjacency_graph(grid)
    if g.number_of_edges() == 0:
        raise ValueError("no adjacent regions in the grid")
    good = 0.0
    total = 0.0
    for a, b, data in g.edges(data=True):
        w = data["weight"]
        hamming = bin(a ^ b).count("1")
        total += w
        if hamming == 1:
            good += w
    return good / total


def region_connectedness(grid: DecisionRegionGrid) -> float:
    """Fraction of present regions forming a single connected component.

    Uses 4-connectivity on the sample grid (flood fill via networkx on the
    pixel graph restricted to each label).
    """
    import networkx as nx

    labels = grid.labels
    res = labels.shape[0]
    present = grid.present_labels
    connected = 0
    for label in present.tolist():
        mask = labels == label
        ys, xs = np.nonzero(mask)
        n_pixels = ys.size
        if n_pixels == 0:  # pragma: no cover - present labels have pixels
            continue
        # build the pixel graph for this region only
        g = nx.Graph()
        idx = ys.astype(np.int64) * res + xs.astype(np.int64)
        g.add_nodes_from(idx.tolist())
        # horizontal neighbours
        right = mask[:, :-1] & mask[:, 1:]
        ry, rx = np.nonzero(right)
        g.add_edges_from(zip((ry * res + rx).tolist(), (ry * res + rx + 1).tolist()))
        # vertical neighbours
        down = mask[:-1, :] & mask[1:, :]
        dy, dx = np.nonzero(down)
        g.add_edges_from(zip((dy * res + dx).tolist(), ((dy + 1) * res + dx).tolist()))
        if nx.number_connected_components(g) == 1:
            connected += 1
    return connected / present.size
