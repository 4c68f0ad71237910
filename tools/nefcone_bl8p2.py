"""Check the nef cone of bl8p2 and print how long `dual_cone` takes; too
slow for tier-1.  Run: PYTHONPATH=src python3 tools/nefcone_bl8p2.py"""
import time
from collections import Counter

import surfpos as sp
from surfpos.lattice import dual_cone

model = sp.builtin("bl8p2")
start = time.perf_counter()
cone = dual_cone(model.effective_gens(), model)
elapsed = time.perf_counter() - start
assert len(cone.generators) == 19440
assert set(cone.facet_normals) == {c.cls for c in model.curves
                                   if c.self_int == -1}
assert len(cone.facet_normals) == 240


def pair(u, v):
    return sum(x * g * y for x, row in zip(u, model.gram)
               for g, y in zip(row, v))


minus_k = [-int(x) for x in model.canonical]
split = Counter((pair(r, r), pair(minus_k, r)) for r in cone.generators)
assert split == {(1, 3): 17280, (0, 2): 2160}, split
print(f"bl8p2 nef cone: 19440 rays, 240 facets = the (-1)-curves, "
      f"17280 x (1, 3) + 2160 x (0, 2); dual_cone took {elapsed:.1f} s")
