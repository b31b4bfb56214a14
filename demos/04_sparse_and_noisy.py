"""
Sparse tensors, noisy tensors, and the error bound
==================================================

Three short studies:

1. a sparse sum of outer products is decomposed without ever densifying the
   input — only the sketched tensors and the core are dense;
2. recovering a planted low-rank signal under additive Gaussian noise, with
   the fit improving as the signal-to-noise ratio grows;
3. an empirical check that achieved errors sit well below the summed
   tail-energy bound that motivates the sketch widths.
"""

import time

import numpy as np

import tuckersketch as ts
from tuckersketch import bench

# --- 1. sparse input stays sparse -----------------------------------------
sp = ts.gen_sparse_outer(200, seed=0)
frac = sp.nnz / np.prod(sp.dims)
print(f"sparse 200^3 tensor: {sp.nnz} stored values ({frac:.2e} dense fraction)")

t0 = time.perf_counter()
approx = ts.decompose(sp, "tucker_svd_seq", (10, 10, 10), seed=0)
wall = time.perf_counter() - t0
print(f"rank-(10,10,10) sketch: rlne {ts.rlne(sp, approx):.3e} in {wall:.3f}s")
print("(the first ten outer products carry ~99% of the energy, so rank 10")
print(" already explains almost everything)")

# --- 2. fit under additive noise -------------------------------------------
print()
print(f"{'snr_db':>7} {'fit':>9}")
for snr in (0.0, 10.0, 20.0, 40.0):
    spec = ts.NoisySpec((8, 8, 8), snr, seed=0)
    noisy, beta = ts.gen_tucker_noise(spec, (40, 40, 40))
    approx = ts.decompose(noisy, "tucker_svd_seq", (8, 8, 8), seed=0)
    print(f"{snr:>7.0f} {1.0 - ts.rlne(noisy, approx):>9.4f}")
print("(at 0 dB half the energy is noise, so a fit near 0 is the honest answer)")

# --- 3. achieved error against the tail-energy budget ----------------------
a = ts.gen_reciprocal_sum((40, 40, 40))
plan = ts.default_plan((40, 40, 40), (8, 8, 8), oversampling=10, seed=0)
probe = bench.probe_bound(a, plan, trials=25, cap=10.0)
print()
print("error / sum of optimal tail energies over 25 sketch draws:")
print(f"  min {probe.ratios.min():.3f}  median {np.median(probe.ratios):.3f}  "
      f"max {probe.ratios.max():.3f}")
print(f"  fraction below cap {probe.cap:g}: {probe.success_fraction:.2f}")
