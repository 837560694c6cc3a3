"""
Tour of the built-in polygonal mesh families.

Builds each family at a few resolutions and prints its size statistics
and its largest chunkiness (cell diameter over star radius), the
shape-regularity hypothesis of the paper's error estimates.
"""
import numpy as np

from wgstokes.mesh import FAMILIES, generate_mesh, shape_regularity

for family in FAMILIES:
    print(f"== {family} ==")
    for n in (4, 8, 16):
        mesh = generate_mesh(family, n, seed=0)
        sides = np.bincount(mesh.side_cell)
        print(
            f"  n={n:<3d} cells={mesh.num_cells:<5d} edges={mesh.num_edges:<5d} "
            f"h={mesh.mesh_size:.4f} sides {sides.min()}..{sides.max()}  "
            f"max diameter/star radius {shape_regularity(mesh).max():.3f}"
        )
    print()
