"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible in captured
output) and `pytest -v` gives the same verdict per test name.  Budgeted
runtimes are asserted where the criterion states one.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import tuckersketch as ts
from tuckersketch import bench

SKETCHED = ("tucker_svd_seq", "tucker_svd_batch", "hooi", "ran_tucker", "kr_tucker")


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {label}")
        raise
    print(f"criterion {num:02d} PASS  {label}")


def _min_wall(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# Shared small suite: every generator family against every algorithm.
@pytest.fixture(scope="module")
def ci_config():
    return bench.SuiteConfig(
        families=bench.FAMILIES,
        algorithms=ts.ALGORITHMS,
        ranks=(4,),
        seeds=(0,),
        dims=(20, 20, 20),
        nnz=200,
        core_dims=(4, 4, 4),
        snr_db=(10.0, 40.0),
        timing_repeats=1,
    )


@pytest.fixture(scope="module")
def ci_result(ci_config):
    return bench.run_suite(ci_config)


def test_criterion_01_exact_rank_recovery():
    with criterion(1, "exact multilinear rank recovered by all sketched algorithms"):
        t0 = time.perf_counter()
        spec = ts.NoisySpec((5, 5, 5), float("inf"), seed=0)
        a, _ = ts.gen_tucker_noise(spec, (40, 40, 40))
        worst = 0.0
        for algorithm in SKETCHED:
            for seed in range(20):
                approx = ts.decompose(a, algorithm, (5, 5, 5), oversampling=10, seed=seed)
                worst = max(worst, ts.rlne(a, approx))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8, f"worst RLNE {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_oracle_error_floor(ci_result):
    with criterion(2, "no error beats the best-possible tail-energy floor"):
        floor_hits = [v for v in ci_result.violations if "oracle floor" in v]
        assert not floor_hits, "\n".join(floor_hits)
        assert len(ci_result.records) == 36  # 6 family instances x 6 algorithms


def test_criterion_03_near_hosvd_on_smooth_tensors():
    with criterion(3, "sequential sketch within 3x of truncated HOSVD"):
        t0 = time.perf_counter()
        tensors = (
            ts.gen_reciprocal_sum((60, 60, 60)),
            ts.gen_log_reciprocal((60, 60, 60)),
        )
        for a in tensors:
            for p in (5, 10, 15, 20):
                rank = (p, p, p)
                ref = ts.rlne(a, ts.truncated_hosvd(a, rank))
                errs = [
                    ts.rlne(a, ts.decompose(a, "tucker_svd_seq", rank, seed=s))
                    for s in range(11)
                ]
                med = statistics.median(errs)
                assert med <= 3.0 * ref, f"P={p}: median {med:.3e} vs hosvd {ref:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_sequential_is_fastest():
    with criterion(4, "sequential sketch beats hooi and full-Gaussian by 1.5x"):
        a = ts.gen_reciprocal_sum((120, 120, 120))
        rank = (20, 20, 20)
        walls = {
            name: _min_wall(lambda n=name: ts.decompose(a, n, rank, seed=0), 3)
            for name in ("tucker_svd_seq", "hooi", "ran_tucker")
        }
        seq = walls["tucker_svd_seq"]
        assert walls["hooi"] >= 1.5 * seq, f"hooi/seq = {walls['hooi'] / seq:.2f}"
        assert walls["ran_tucker"] >= 1.5 * seq, f"ran/seq = {walls['ran_tucker'] / seq:.2f}"


def test_criterion_05_sequential_not_slower_than_batch():
    with criterion(5, "shrinking working tensor never slower than batch sketching"):
        a = ts.gen_random_sparse((120, 120, 120), 3000, seed=0)
        for p in (10, 20, 30):
            rank = (p, p, p)
            walls = {}
            for name in ("tucker_svd_seq", "tucker_svd_batch"):
                # min-of-5 damps scheduler jitter; the criterion compares walls
                walls[name] = _min_wall(lambda n=name: ts.decompose(a, n, rank, seed=0), 5)
            assert walls["tucker_svd_seq"] <= walls["tucker_svd_batch"], (
                f"P={p}: seq {walls['tucker_svd_seq']:.4f}s "
                f"vs batch {walls['tucker_svd_batch']:.4f}s"
            )
            meds = {
                name: statistics.median(
                    ts.rlne(a, ts.decompose(a, name, rank, seed=s)) for s in range(5)
                )
                for name in ("tucker_svd_seq", "tucker_svd_batch")
            }
            ratio = meds["tucker_svd_seq"] / meds["tucker_svd_batch"]
            assert 1 / 1.5 <= ratio <= 1.5, f"P={p}: RLNE median ratio {ratio:.3f}"


def test_criterion_06_projection_identities(ci_config, ci_result):
    with criterion(6, "projector inequality, Pythagoras, and norm-split identities"):
        ineq_hits = [v for v in ci_result.violations if "projector inequality" in v]
        assert not ineq_hits, "\n".join(ineq_hits)

        # Pythagoras on every (tensor, algorithm) pair of the same suite.
        for family in ci_config.families:
            for tensor, _ in bench._family_instances(family, ci_config):
                for algorithm in ci_config.algorithms:
                    approx = ts.decompose(tensor, algorithm, (4, 4, 4), seed=0)
                    _, pyth_rel = approx.source_residuals(tensor)
                    assert pyth_rel <= 1e-8, f"{family}/{algorithm}: {pyth_rel:.3e}"

        # ||a||^2 == ||a x_n Q^T||^2 + ||a - a x_n QQ^T||^2 for orthonormal Q.
        rng = np.random.default_rng(0)
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(5, 13, size=3))
            a = rng.standard_normal(dims)
            n = int(rng.integers(1, 4))
            width = int(rng.integers(1, dims[n - 1] + 1))
            q, _ = np.linalg.qr(rng.standard_normal((dims[n - 1], width)))
            total = ts.frob_norm(a) ** 2
            kept = ts.frob_norm(ts.mode_product(a, n, q.T)) ** 2
            lost = ts.frob_norm(a - ts.mode_product(ts.mode_product(a, n, q.T), n, q)) ** 2
            assert abs(total - (kept + lost)) <= 1e-10 * total


def test_criterion_07_fit_improves_with_snr():
    with criterion(7, "median FIT non-decreasing in SNR, >= 0.95 at 40 dB"):
        medians = []
        for snr in (0.0, 10.0, 20.0, 40.0):
            fits = []
            for s in range(11):
                spec = ts.NoisySpec((20, 20, 20), snr, seed=s)
                a, _ = ts.gen_tucker_noise(spec, (80, 80, 80))
                approx = ts.decompose(a, "tucker_svd_seq", (20, 20, 20), seed=s)
                fits.append(1.0 - ts.rlne(a, approx))
            medians.append(statistics.median(fits))
        assert all(lo <= hi for lo, hi in zip(medians, medians[1:])), medians
        assert medians[-1] >= 0.95, f"FIT at 40 dB: {medians[-1]:.4f}"


def test_criterion_08_order_4_generalization():
    with criterion(8, "order-4 sequential sketch within 3x of order-4 HOSVD"):
        t0 = time.perf_counter()
        tensors = (
            ts.gen_reciprocal_sum((30, 30, 30, 30)),
            ts.gen_sparse_outer(30, order=4, seed=0),
        )
        for a in tensors:
            for p in (5, 10):
                rank = (p, p, p, p)
                ref = ts.rlne(a, ts.truncated_hosvd(a, rank))
                errs = [
                    ts.rlne(a, ts.decompose(a, "tucker_svd_seq", rank, seed=s))
                    for s in range(11)
                ]
                med = statistics.median(errs)
                assert med <= 3.0 * ref, f"P={p}: median {med:.3e} vs hosvd {ref:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_byte_identical_reruns(tmp_path, ci_config):
    with criterion(9, "same input/config/seed gives byte-identical outputs"):
        a = ts.gen_log_reciprocal((25, 25, 25))
        dirs = (tmp_path / "run1", tmp_path / "run2")
        for d in dirs:
            approx = ts.decompose(a, "tucker_svd_seq", (6, 6, 6), seed=3)
            ts.save_approx(approx, d)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == ["core", "factor_1", "factor_2", "factor_3"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            bench.write_records_csv(bench.run_suite(ci_config).records, path)
            with open(path) as fh:
                rows = [line.rstrip("\n").split(",") for line in fh]
            csvs.append([row[:7] + row[8:] for row in rows])  # drop wall_time_s
        assert csvs[0] == csvs[1]


def test_criterion_10_tail_energy_bound_probe():
    with criterion(10, "all probe errors below 10x the summed tail energies"):
        a = ts.gen_reciprocal_sum((60, 60, 60))
        plan = ts.default_plan((60, 60, 60), (10, 10, 10), oversampling=10, seed=0)
        probe = bench.probe_bound(a, plan, trials=50, cap=10.0)
        assert not probe.degenerate
        assert probe.trials == 50
        assert probe.success_fraction == 1.0, (
            f"success {probe.success_fraction:.2f}, worst ratio {probe.ratios.max():.3f}"
        )
