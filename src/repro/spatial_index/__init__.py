"""In-memory spatial indexes.

These are the index structures of the comparison systems (Section II):
STR-packed R-trees (Simba, SpatialSpark local indexes), quad-trees
(LocationSpark) and uniform grids (SpatialHadoop/Hadoop-GIS
partitioning).  Each reports its approximate memory footprint so the
cluster memory budget can be enforced.
"""

from repro.spatial_index.rtree import RTree
from repro.spatial_index.quadtree import QuadTree
from repro.spatial_index.grid import GridIndex

__all__ = ["RTree", "QuadTree", "GridIndex"]
