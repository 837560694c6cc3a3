"""
Tour of the built-in polygonal mesh families.

Builds each family at a few resolutions, prints size and shape-quality
statistics, and round-trips one mesh through the text format.
"""
import os
import tempfile

import numpy as np

from wgstokes.mesh import FAMILIES, generate_mesh, load_mesh, save_mesh, shape_regularity

for family in FAMILIES:
    print(f"== {family} ==")
    for n in (4, 8, 16):
        mesh = generate_mesh(family, n, seed=0)
        report = shape_regularity(mesh)
        sides = np.bincount(mesh.side_cell)
        print(
            f"  n={n:<3d} cells={mesh.num_cells:<5d} edges={mesh.num_edges:<5d} "
            f"h={mesh.mesh_size:.4f} sides {sides.min()}..{sides.max()}  {report.summary()}"
        )
    print()

# the text format preserves coordinates bit-for-bit
mesh = generate_mesh("perturbed-polygon", 8, seed=3)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "mesh.txt")
    save_mesh(mesh, path)
    again = load_mesh(path)
print(f"round trip through {path}:")
print(f"  vertices identical: {(mesh.vertices == again.vertices).all()}")
tables = ("side_starts", "side_vertices")
same = all(np.array_equal(getattr(mesh, t), getattr(again, t)) for t in tables)
print(f"  cells identical:    {same}")
