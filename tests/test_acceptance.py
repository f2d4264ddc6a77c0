"""Acceptance suite: one test per criterion, printing a pass/fail line.

Every tolerance is stated inline; nothing is deferred to calibration.
Criterion 11 checks the Helmholtz Schur block by its wave-count rank
law: the epsilon-rank at 10 waves sits above the Laplace rank, and it
grows linearly with the wave count. The count of normalized singular
values above 0.1 is printed but not asserted. The spectrum is divided
by sigma_0, and for a Dirichlet cavity sigma_0 is set by whichever
half-domain mode lies near kappa^2 (1.9e5 at 10 waves against 3.0e3
for Laplace, at n = 128), so that count moves between 1 and 7 over
2.5-30 waves with no trend.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from fds import bie2d, bvp1d, experiments, hbs, hodlr, sparsend
from fds.linalg import eps_rank
from fds.tree import build_uniform_tree

from oracles import block_separable_inverse_apply, compress_to_block_separable, woodbury_variant

SEED = 13579


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def ie_system(N):
    p = bvp1d.Bvp1dProblem.from_functions(
        0.0, 1.0, N,
        lambda x: 100.0 * (1.0 + x) * np.cos(x),
        lambda x: 1.0 + np.cos(1.0 + x),
    )
    return bvp1d.assemble_nystrom(p)


def ellipse_system(N):
    curve = bie2d.make_curve("ellipse", N, 2.0, 1.0)
    f = bie2d.laplace_fundamental(np.linalg.norm(curve.x - [3.0, 1.5], axis=1))
    return bie2d.assemble_bie(curve, f)


def run_spectrum_cli(tmp_path, geometry):
    from fds.cli import main

    out = tmp_path / f"{geometry}.csv"
    code = main(["spectrum", "--kernel", "laplace", "--grid-k", "12",
                 "--geometry", geometry, "--out", str(out)])
    footer = {
        row.split(",")[0]: int(row.split(",")[1])
        for row in out.read_text().splitlines()
        if row.startswith("rank@")
    }
    return code, footer["rank@1e-10"]


def test_criterion_01_laplace_directional_rank(tmp_path):
    (code, rank), dt = timed(run_spectrum_cli, tmp_path, "directional")
    report(1, code == 0 and rank == 17 and dt < 1.0,
           f"fds spectrum directional: rank@1e-10 = {rank} (want 17), {dt:.2f}s")


def test_criterion_02_laplace_global_rank(tmp_path):
    (code, rank), dt = timed(run_spectrum_cli, tmp_path, "global")
    report(2, code == 0 and abs(rank - 33) <= 1 and dt < 5.0,
           f"fds spectrum global: rank@1e-10 = {rank} (want 33 +-1), {dt:.2f}s")


def test_criterion_03_helmholtz_rank_ladder():
    t0 = time.perf_counter()
    targets = {20.0: 19, 40.0: 24, 80.0: 31, 160.0: 45, 320.0: 70}
    ranks, knees = {}, {}
    for kappa, want in targets.items():
        res = experiments.spectrum_potential("helmholtz", 64, "directional",
                                             kappa=kappa, seed=SEED)
        ranks[kappa] = res.rank_at(1e-10)
        knees[kappa] = int(np.argmax(res.sigmas < 0.1)) + 1
    dt = time.perf_counter() - t0
    rank_ok = all(abs(ranks[k] - want) <= 2 for k, want in targets.items())
    # knee within a factor of two of kappa D / (2 pi), D the box side
    knee_ok = all(0.5 <= knees[k] / (k / (2 * np.pi)) <= 2.0 for k in targets)
    report(3, rank_ok and knee_ok and dt < 300.0,
           f"ranks {ranks} (want {targets}), knees {knees}, {dt:.0f}s")


def test_criterion_04_conditioning_study():
    rows, dt = timed(bvp1d.condition_study, [64, 128, 256, 512, 1024, 2048], "nonosc")
    Ns = np.array([r.N for r in rows])
    slope = np.polyfit(np.log(Ns), np.log([r.cond_fd for r in rows]), 1)[0]
    ie = np.array([r.cond_ie for r in rows])
    ratio = ie.max() / ie.min()
    report(4, 1.9 <= slope <= 2.1 and ratio < 2.0 and dt < 120.0,
           f"cond_fd slope = {slope:.3f} (want [1.9, 2.1]), "
           f"cond_ie max/min = {ratio:.3f} (want < 2), {dt:.0f}s")


def test_criterion_05_fd_ie_equivalence():
    t0 = time.perf_counter()
    p = bvp1d.Bvp1dProblem.from_functions(
        0.0, 1.0, 512,
        lambda x: 100.0 * (1.0 + x) * np.cos(x),
        lambda x: 1.0 + np.cos(1.0 + x),
    )
    u_fd = bvp1d.solve_bvp_fd(p)
    u_ie = bvp1d.solve_bvp_ie(p)
    err = np.max(np.abs(u_fd - u_ie)) / np.max(np.abs(u_fd))
    dt = time.perf_counter() - t0
    report(5, err <= 1e-9 and dt < 10.0,
           f"FD vs IE at N=512: relative max-norm gap = {err:.2e} (want <= 1e-9), {dt:.1f}s")


def test_criterion_06_hodlr_inverse_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok, details = True, []
    for label, (A, _) in [("1D IE N=512", ie_system(512)),
                          ("ellipse BIE N=1024", (ellipse_system(1024).matrix, None))]:
        tree = build_uniform_tree(A.shape[0], 32 if A.shape[0] == 512 else 64)
        H = hodlr.compress_to_hodlr(A, tree, 1e-12)
        ranks_before = list(H.rank)
        inv = hodlr.invert_multiplicative(H)
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(A.shape[0])
            y = inv.apply(hodlr.hodlr_matvec(H, x))
            worst = max(worst, np.linalg.norm(y - x) / np.linalg.norm(x))
        # the Woodbury recursion A_tau^{-1} = (I + U V*) blockdiag(A_alpha^{-1},
        # A_beta^{-1}) over the stored blocks, against dense inverses per node
        node_inv, dense, node_worst = dict(inv.leaf_inverses), H.todense(), 0.0
        for ell in range(tree.depth - 1, -1, -1):
            for tau, f in inv.level_blocks[ell].items():
                D = scipy.linalg.block_diag(node_inv[2 * tau], node_inv[2 * tau + 1])
                node_inv[tau] = D + f.U @ (f.V.conj().T @ D)
        for tau, M in node_inv.items():
            ref = np.linalg.inv(dense[slice(*tree.ranges[tau]), slice(*tree.ranges[tau])])
            node_worst = max(node_worst, np.linalg.norm(M - ref) / np.linalg.norm(ref))
        ok &= worst <= 1e-8 and node_worst <= 1e-8
        details.append(f"{label}: apply {worst:.1e}, per-node Woodbury {node_worst:.1e}")
        ok &= H.rank == ranks_before
    dt = time.perf_counter() - t0
    report(6, ok and dt < 60.0, "; ".join(details) + f" (want <= 1e-8), {dt:.0f}s")


def test_criterion_07_hbs_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    # (a) 200 random micro-instances of the Woodbury variation
    micro_ok = True
    for _ in range(200):
        N = int(rng.integers(2, 13))
        K = int(rng.integers(1, min(5, N + 1)))
        D = (N + 2) * np.eye(N) + rng.standard_normal((N, N))
        U, V = rng.standard_normal((2, N, K))
        At = rng.standard_normal((K, K))
        Dhat, E, F, G = woodbury_variant(D, U, V, At)
        Ainv = E @ np.linalg.solve(At + Dhat, F.conj().T) + G
        micro_ok &= np.max(np.abs((U @ At @ V.T + D) @ Ainv - np.eye(N))) < 1e-12
    # (b) inversion pipeline composed with the matvec at N=1024
    A, _ = ie_system(1024)
    tree = build_uniform_tree(1024, 64)
    H = hbs.compress_to_hbs(A, tree, 1e-12)
    inv = hbs.hbs_invert(H)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(1024)
        q = inv.apply(hbs.hbs_matvec(H, x))
        worst = max(worst, np.linalg.norm(q - x) / np.linalg.norm(x))
    # (c) flat vs two-level agreement
    A2 = A[:128, :128] + np.eye(128)
    tree2 = build_uniform_tree(128, 32)
    H2 = hbs.compress_to_hbs(A2, tree2, 1e-13)
    flat = compress_to_block_separable(
        A2, [np.arange(i, i + 32) for i in range(0, 128, 32)], 1e-13
    )
    u = rng.standard_normal(128)
    gap = np.linalg.norm(
        hbs.hbs_invert(H2).apply(u) - block_separable_inverse_apply(flat, u)
    ) / np.linalg.norm(u)
    dt = time.perf_counter() - t0
    report(7, micro_ok and worst <= 1e-8 and gap <= 1e-11 and dt < 120.0,
           f"micro ok = {micro_ok}, composition = {worst:.1e} (<= 1e-8), "
           f"flat gap = {gap:.1e} (<= 1e-11), {dt:.0f}s")


def test_criterion_08_storage_laws():
    t0 = time.perf_counter()
    sizes = [512, 1024, 2048, 4096, 8192]
    hbs_storage, hodlr_storage = [], []
    for N in sizes:
        A, _ = ie_system(N)
        tree = build_uniform_tree(N, 64)
        hbs_storage.append(
            hbs.hbs_storage(hbs.compress_to_hbs(A, tree, 1e-10))["stored_scalars"]
        )
        hodlr_storage.append(
            hodlr.storage_report(hodlr.compress_to_hodlr(A, tree, 1e-10))["stored_scalars"]
        )
    logN = np.log(sizes)
    hbs_slope = np.polyfit(logN, np.log(hbs_storage), 1)[0]
    hodlr_slope = np.polyfit(logN, np.log(hodlr_storage), 1)[0]
    dt = time.perf_counter() - t0
    report(8, 0.95 <= hbs_slope <= 1.1 and 1.0 <= hodlr_slope <= 1.25 and dt < 120.0,
           f"storage exponents: hbs = {hbs_slope:.3f} (want [0.95, 1.1]), "
           f"hodlr = {hodlr_slope:.3f} (want [1.0, 1.25]), {dt:.0f}s")


@pytest.mark.filterwarnings("ignore:.*node spacings.*:UserWarning")
def test_criterion_09_bie_accuracy():
    # the coarsest sweeps (N = 50, 100) legitimately trip the
    # near-boundary flag; their errors only feed the reduction-rate check
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    errs = {}
    for N in (50, 100, 200, 400):
        curve = bie2d.make_curve("ellipse", N, 2.0, 1.0)
        f = bie2d.laplace_fundamental(np.linalg.norm(curve.x - [3.0, 1.5], axis=1))
        sigma = bie2d.solve_interior_dirichlet(curve, f)
        tt = rng.uniform(0, 2 * np.pi, 25)
        rr = rng.uniform(0.1, 0.5, 25)
        targets = np.column_stack([2.0 * rr * np.cos(tt), rr * np.sin(tt)])
        u, _ = bie2d.eval_double_layer(curve, sigma, targets)
        u_exact = bie2d.laplace_fundamental(np.linalg.norm(targets - [3.0, 1.5], axis=1))
        errs[N] = np.max(np.abs(u - u_exact) / np.abs(u_exact))
    reduction_ok = all(
        errs[2 * N] <= errs[N] / 10.0 or errs[2 * N] < 1e-12
        for N in (50, 100, 200)
    )
    curve = bie2d.make_curve("ellipse", 256, 2.0, 1.0)
    gauss = bie2d.assemble_bie(curve, np.zeros(256)).matrix @ np.ones(256)
    gauss_err = np.max(np.abs(gauss - bie2d.GAUSS_INTERIOR_CONSTANT))
    dt = time.perf_counter() - t0
    report(9, errs[400] <= 1e-10 and reduction_ok and gauss_err <= 1e-10 and dt < 30.0,
           f"point-charge err(400) = {errs[400]:.1e} (<= 1e-10), "
           f"errors {dict((k, float(f'{v:.1e}')) for k, v in errs.items())}, "
           f"gauss deviation = {gauss_err:.1e} (<= 1e-10), {dt:.0f}s")


def test_criterion_10_nested_dissection():
    t0 = time.perf_counter()
    st = sparsend.assemble_stencil(2, 16)
    fac = sparsend.nd_factor(st, sparsend.nd_partition(2, 16, leaf_cells=4))
    rng = np.random.default_rng(SEED)
    B = rng.standard_normal((st.N, 5))
    gap = np.max(np.abs(sparsend.nd_solve(fac, B) - np.linalg.solve(st.A.toarray(), B)))
    gap /= np.max(np.abs(np.linalg.solve(st.A.toarray(), B)))
    flops, Ns = [], []
    for n in (32, 64, 128):
        stn = sparsend.assemble_stencil(2, n)
        flops.append(sparsend.nd_factor(stn, sparsend.nd_partition(2, n, 4)).flops)
        Ns.append(stn.N)
    slope = np.polyfit(np.log(Ns), np.log(flops), 1)[0]
    errs = []
    for n in (16, 32, 64):
        stn = sparsend.assemble_stencil(2, n)
        h = stn.h
        ij = np.indices((n, n)).reshape(2, -1) + 1
        u_exact = np.sin(np.pi * ij[0] * h) * np.sin(np.pi * ij[1] * h)
        fn = sparsend.nd_factor(stn, sparsend.nd_partition(2, n, 4))
        u = sparsend.nd_solve(fn, 2.0 * np.pi**2 * u_exact)
        errs.append(np.max(np.abs(u - u_exact)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ratio_ok = all(3.6 <= r <= 4.4 for r in ratios)
    dt = time.perf_counter() - t0
    report(10, gap <= 1e-11 and 1.4 <= slope <= 1.65 and ratio_ok and dt < 120.0,
           f"dense gap = {gap:.1e} (<= 1e-11), flop exponent = {slope:.3f} "
           f"(want [1.4, 1.65]), error ratios = {[f'{r:.2f}' for r in ratios]} "
           f"(want 4.0 +- 0.4), {dt:.0f}s")


def test_criterion_11_schur_spectra():
    t0 = time.perf_counter()
    r128 = sparsend.schur_offdiag_spectrum(2, 128).rank_at(1e-10)
    r256 = sparsend.schur_offdiag_spectrum(2, 256).rank_at(1e-10)
    laplace_ok = r128 <= 30 and (r256 - r128) <= 5
    waves = (5.0, 10.0, 20.0)
    helm_specs = [
        sparsend.schur_offdiag_spectrum(
            2, 128, operator="helmholtz", kappa=2.0 * np.pi * w
        )
        for w in waves
    ]
    helm_ranks = [spec.rank_at(1e-10) for spec in helm_specs]
    helm = helm_specs[1]  # 10 waves
    # printed, not asserted: sigma_0 follows the cavity mode nearest
    # kappa^2, so the 0.1-level count has no trend in the wave count
    plateau = int(np.argmax(helm.sigmas < 0.1))
    helm_decay_ok = helm.sigmas[-1] < 1e-10
    # oscillation adds rank: +4 over Laplace at 10 waves, and a linear
    # law of 0.4-1.0 ranks per wave over 5-20 waves
    helm_rank_ok = helm_ranks[1] >= r128 + 4
    slope = float(np.polyfit(waves, helm_ranks, 1)[0])
    helm_slope_ok = 0.4 <= slope <= 1.0
    r3d = sparsend.schur_offdiag_spectrum(3, 24, leaf_cells=4).rank_at(1e-10)
    dim_ok = r3d >= 3 * r128
    dt = time.perf_counter() - t0
    report(
        11,
        laplace_ok and helm_rank_ok and helm_slope_ok and helm_decay_ok
        and dim_ok and dt < 600.0,
        f"2D laplace ranks {r128} -> {r256} (want <= 30, growth <= 5: "
        f"{'ok' if laplace_ok else 'BAD'}), helmholtz ranks {helm_ranks} at "
        f"{waves} waves (10 waves >= {r128} + 4: "
        f"{'ok' if helm_rank_ok else 'BAD'}; slope {slope:.2f}/wave, want "
        f"[0.4, 1.0]: {'ok' if helm_slope_ok else 'BAD'}), 0.1-level count "
        f"{plateau} (not asserted), tail < 1e-10: {helm_decay_ok}, "
        f"3D rank {r3d} >= 3 x {r128}: {dim_ok}, {dt:.0f}s",
    )


def test_criterion_12_weak_vs_strong():
    t0 = time.perf_counter()
    w100, s100 = experiments.weak_vs_strong_spectrum(100, seed=SEED)
    w400, s400 = experiments.weak_vs_strong_spectrum(400, seed=SEED)
    strong_less = s100.rank_at(1e-10) < w100.rank_at(1e-10)
    stable = abs(s400.rank_at(1e-10) - s100.rank_at(1e-10)) <= 3
    growth = w400.rank_at(1e-10) / w100.rank_at(1e-10)
    dt = time.perf_counter() - t0
    report(12, strong_less and stable and 1.6 <= growth <= 2.6 and dt < 60.0,
           f"strong {s100.rank_at(1e-10)} < weak {w100.rank_at(1e-10)}: {strong_less}, "
           f"strong drift {s100.rank_at(1e-10)} -> {s400.rank_at(1e-10)} (<= 3), "
           f"weak growth = {growth:.2f} (want [1.6, 2.6]), {dt:.0f}s")


def test_criterion_13_multipole_bound():
    t0 = time.perf_counter()
    src = 0.5 * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    q = np.array([1.0, 0.7, 1.3, 0.9])
    gx = np.linspace(1.5, 2.5, 21)
    gy = np.linspace(-0.5, 0.5, 21)
    targets = np.array([(a, b) for a in gx for b in gy])
    direct = np.array([np.sum(q * -np.log(np.hypot(*(t - src).T))) for t in targets])
    errs = []
    ps = range(2, 30)
    for p in ps:
        u = bie2d.multipole_approx(src, q, targets, np.zeros(2), p)
        errs.append(np.max(np.abs(u - direct)))
    ratio = np.exp(np.polyfit(list(ps), np.log(errs), 1)[0])
    dt = time.perf_counter() - t0
    report(13, 0.40 <= ratio <= 0.55 and dt < 5.0,
           f"fitted per-term error ratio = {ratio:.3f} "
           f"(want [0.40, 0.55], theory 0.471), {dt:.1f}s")


def test_criterion_14_proxy_compression():
    t0 = time.perf_counter()
    curve = bie2d.make_curve("starfish", 1024, 0.3, 5)
    system = bie2d.assemble_bie(curve, np.zeros(1024)).matrix
    worst_gap, worst_err = -10, 0.0
    for p0 in range(0, 1024, 52):  # 20 panels around the curve
        src = (np.arange(64) + p0) % 1024
        c = curve.x[src].mean(axis=0)
        r_patch = np.max(np.linalg.norm(curve.x[src] - c, axis=1))
        dist = np.linalg.norm(curve.x - c, axis=1)
        far = np.where(dist > 2.0 * r_patch)[0]
        radius = max(1.5 * r_patch, 0.95 * dist[far].min())
        fac = bie2d.proxy_compress_block(curve, src, far, c, radius, 64, 1e-10)
        block = system[np.ix_(far, src)]
        s = np.linalg.svd(block, compute_uv=False)
        worst_gap = max(worst_gap, fac.rank - eps_rank(s, 1e-10))
        worst_err = max(worst_err, np.linalg.norm(fac.todense() - block, 2) / s[0])
    dt = time.perf_counter() - t0
    report(14, worst_gap <= 3 and worst_err <= 50 * 1e-10 and dt < 30.0,
           f"worst rank gap = {worst_gap} (<= 3), worst block error = "
           f"{worst_err:.1e} (<= 5e-9), {dt:.0f}s")
