"""Check that relabelling the points of bl8p2 leaves a Newton-Okounkov
polygon as it is, and print how long each labelling takes; too slow for
tier-1.

The case is criterion_at_point(bl8p2, -K + E_a, flag E_b) at a generic
point of E_b.  Relabelling by a permutation w of 1 ... 8 maps the curve
list of bl8p2 to itself, so (a, b) = (w(1), w(2)) must give the same
polygon, origin membership and lambda.  The LP's pivots, and so its time,
may still depend on the labels.

Run: PYTHONPATH=src python3 tools/relabel_bl8p2.py
"""
import random
import time

import surfpos as sp
from surfpos.lattice import PointSpec
from surfpos.okounkov import criterion_at_point

model = sp.builtin("bl8p2")
model.effective_gens()  # built once per model; keep it out of the times
minus_k = [-x for x in model.canonical]
rng = random.Random(8)
results = []
for _ in range(5):
    w = rng.sample(range(1, 9), 8)
    a, b = w[0], w[1]
    d = model.divisor([x + (i == a) for i, x in enumerate(minus_k)])
    flag = f"E{b}"
    start = time.perf_counter()
    result = criterion_at_point(model, d, flag,
                                PointSpec(on_curve=flag, generic=True))
    elapsed = time.perf_counter() - start
    results.append(result)
    print(f"-K + E{a}, flag {flag}: {elapsed:.2f} s")
first = results[0]
for result in results[1:]:
    assert (set(result["polygon"].vertices)
            == set(first["polygon"].vertices))
    assert result["origin_in"] == first["origin_in"]
    assert result["lambda"] == first["lambda"]
print(f"bl8p2: five labellings give one polygon with "
      f"{len(first['polygon'].vertices)} vertices, "
      f"lambda = {first['lambda']}")
