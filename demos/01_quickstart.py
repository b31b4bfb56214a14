"""
Quickstart: compress a smooth tensor six ways
=============================================

Builds the classic test tensor a[ijk] = 1/(i+j+k) at 60x60x60, runs every
decomposition in the package at multilinear rank (10,10,10), and prints the
relative error, fit, and wall time of each.  Ends with a save/load round trip.
"""

import tempfile
import time

import tuckersketch as ts

# the tensor: smooth, rapidly decaying spectrum, a friendly first target
a = ts.gen_reciprocal_sum((60, 60, 60))
rank = (10, 10, 10)
print(f"tensor 60x60x60, ||a||_F = {ts.frob_norm(a):.6f}, target rank {rank}")
print()

print(f"{'algorithm':<18} {'rlne':>12} {'fit':>10} {'seconds':>9}")
for name in ts.ALGORITHMS:
    t0 = time.perf_counter()
    approx = ts.decompose(a, name, rank, seed=0)
    wall = time.perf_counter() - t0
    m = ts.metrics_for(a, approx, wall)
    print(f"{name:<18} {m.rlne:>12.3e} {m.fit:>10.6f} {m.wall_time_s:>9.4f}")

# every result is a core plus one orthonormal factor per mode
approx = ts.decompose(a, "tucker_svd_seq", rank, seed=0)
print()
print("core shape:", approx.core.shape)
print("factor shapes:", [q.shape for q in approx.factors])

# round trip through the text archive format
with tempfile.TemporaryDirectory() as d:
    ts.save_approx(approx, d, ts.metrics_for(a, approx))
    loaded, metrics = ts.load_approx(d)
    same = ts.rlne(a, loaded) == ts.rlne(a, approx)
    print(f"archive round trip exact: {same}, stored rlne = {metrics.rlne:.3e}")
