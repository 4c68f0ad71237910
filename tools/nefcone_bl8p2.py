"""Check the nef cone of bl8p2 and print how long `dual_cone` takes; too
slow for tier-1.  Its rays must be exactly the W(E_8) orbits of H and
H - E1, built by `nef_rays` in tests/test_weyl.py.
Run: PYTHONPATH=src python3 tools/nefcone_bl8p2.py"""
import sys
import time
from collections import Counter
from pathlib import Path

import surfpos as sp
from surfpos.lattice import dual_cone

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_weyl import nef_rays  # noqa: E402

model = sp.builtin("bl8p2")
start = time.perf_counter()
cone = dual_cone(model.effective_gens(), model)
elapsed = time.perf_counter() - start
assert len(cone.generators) == 19440
assert list(cone.generators) == nef_rays(8)
assert set(cone.facet_normals) == {c.cls for c in model.curves
                                   if c.self_int == -1}
assert len(cone.facet_normals) == 240


def pair(u, v):
    return sum(x * g * y for x, row in zip(u, model.gram)
               for g, y in zip(row, v))


minus_k = [-int(x) for x in model.canonical]
split = Counter((pair(r, r), pair(minus_k, r)) for r in cone.generators)
assert split == {(1, 3): 17280, (0, 2): 2160}, split
print(f"bl8p2 nef cone: 19440 rays = the orbits of H and H - E1, "
      f"240 facets = the (-1)-curves, 17280 x (1, 3) + 2160 x (0, 2); "
      f"dual_cone took {elapsed:.1f} s")
