"""
Sketch plans and reproducible randomness
========================================

The sketched algorithms never form a large random matrix.  Each mode is
compressed by a chain of small Gaussians whose widths come from a plan; the
implied big test matrix is their Kronecker product.  This walk-through shows
what a plan contains, that every Gaussian behind it is a pure function of
(seed, stream id) (same key in, same bits out; a shorter draw is a prefix of
a longer one), and that the structured sketch really equals the
unfold-times-Kronecker product it stands for.
"""

import numpy as np

import tuckersketch as ts

# --- counter-based Gaussian draws ----------------------------------------
print("first five normals of stream (7,3):", np.round(ts.normals(7, 3, 5), 6))

# a draw depends on its key and length only, and a shorter one is a prefix
a = ts.normals(7, 3, 9)
print("same key, same bits:", np.array_equal(a, ts.normals(7, 3, 9)))
print("prefix of a longer draw:", np.array_equal(ts.normals(7, 3, 4), a[:4]))

# --- what a plan looks like ------------------------------------------------
dims, rank = (100, 100, 100), (5, 5, 5)
plan = ts.default_plan(dims, rank, oversampling=10, seed=0)
print()
print("plan for dims", dims, "rank", rank)
# a plan is its target ranks, its chain widths and its seed; seq picks its
# processing order from the dims (largest first, ties by mode index)
print("  chain widths per target mode:", plan.sketch_dims)
print("  total width per mode:", {n: plan.width(n) for n in plan.sketch_dims})
for n, why in ts.guarantee_gaps(plan, dims).items():
    print(f"  guarantee gap for mode {n}: {why}")
print("  (default widths favor speed; widen via a custom SketchPlan when the")
print("   guarantee matters more than the constant factor)")

# --- the sketch equals unfold @ kron(...)^T --------------------------------
rng = np.random.default_rng(0)
small = rng.standard_normal((8, 9, 7))
plan_s = ts.default_plan(small.shape, (2, 2, 2), oversampling=2, seed=1)
sk = ts.sketch_mode(small, 1, plan_s)

# mode 1's Gaussian for mode m is drawn from stream id 256 * 1 + m
l12, l13 = plan_s.sketch_dims[1]
g2 = ts.gaussian_matrix(plan_s.seed, 256 + 2, l12, 9)
g3 = ts.gaussian_matrix(plan_s.seed, 256 + 3, l13, 7)
explicit = ts.unfold(small, 1) @ np.kron(g3, g2).T
print()
print("structured sketch matches explicit Kronecker product:",
      np.allclose(sk, explicit, atol=1e-10))
print("sketch shape:", sk.shape, "— the full test matrix",
      (np.kron(g3, g2).T).shape, "is never built at real sizes")
