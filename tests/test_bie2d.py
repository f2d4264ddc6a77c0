"""Interior Dirichlet Laplace BIE: geometry, kernel conventions, solver
accuracy, proxy compression, and the multipole expansion."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fds.bie2d import (
    SeparationError,
    assemble_bie,
    dlp_kernel,
    eval_double_layer,
    laplace_fundamental,
    make_curve,
    multipole_approx,
    proxy_compress_block,
    solve_interior_dirichlet,
)
from fds.linalg import eps_rank

from oracles import _coarse_intersection_scan, assemble_bie_matrix

RNG_SEED = 60601
CHARGE = np.array([3.0, 1.5])  # exterior to every test curve


def point_charge_data(curve):
    return laplace_fundamental(np.linalg.norm(curve.x - CHARGE, axis=1))


def interior_targets(curve, n=25, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    centroid = curve.x.mean(axis=0)
    scale = rng.uniform(0.1, 0.5, n)
    picks = rng.integers(0, curve.N, n)
    return centroid + scale[:, None] * (curve.x[picks] - centroid)


class TestMakeCurve:
    def test_unit_circle(self):
        c = make_curve("circle", 64, 1.0)
        assert np.allclose(c.curvature, 1.0, atol=1e-14)
        assert np.allclose(c.speed, 1.0, atol=1e-14)
        assert abs(c.weights.sum() - 2 * np.pi) < 1e-13

    def test_ellipse_perimeter_vs_elliptic_integral(self):
        # oracle: 4 a E(e^2), cross-checked by adaptive quadrature of the speed
        a, b = 2.0, 1.0
        perimeter = 4.0 * a * scipy.special.ellipe(1.0 - (b / a) ** 2)
        quad, _ = scipy.integrate.quad(
            lambda t: np.hypot(a * np.sin(t), b * np.cos(t)), 0.0, 2.0 * np.pi,
            limit=200,
        )
        assert abs(perimeter - quad) < 1e-10
        c = make_curve("ellipse", 256, a, b)
        assert abs(c.weights.sum() - perimeter) < 1e-12

    def test_starfish_normals_orthogonal_to_tangent(self):
        c = make_curve("starfish", 512, 0.3, 5)
        t = c.t
        amp, arms = 0.3, 5
        r = 1.0 + amp * np.cos(arms * t)
        dr = -amp * arms * np.sin(arms * t)
        tangent = np.column_stack(
            [dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)]
        )
        dots = np.abs(np.sum(c.normal * tangent, axis=1)) / np.linalg.norm(tangent, axis=1)
        assert np.max(dots) < 1e-13

    def test_unit_normals(self):
        c = make_curve("starfish", 128, 0.3, 5)
        assert np.max(np.abs(np.linalg.norm(c.normal, axis=1) - 1.0)) < 1e-14

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_curve("starfish", 128, 1.5, 5)
        with pytest.raises(ValueError):
            make_curve("circle", 15, 1.0)
        with pytest.raises(ValueError):
            make_curve("blob", 64, 1.0)

    @pytest.mark.parametrize("kind, params, match", [
        ("starfish", (0.3, 5.7), "arms"),
        ("starfish", (0.3, 0), "arms"),
        ("starfish", (0.3, float("nan")), "arms"),
        ("starfish", (0.3,), "starfish takes 2 parameter"),
        ("starfish", (0.3, 5, 1.0), "starfish takes 2 parameter"),
        ("circle", (1.0, 2.0), "circle takes 1 parameter"),
        ("ellipse", (2.0,), "ellipse takes 2 parameter"),
        ("circle", (-1.0,), "radius"),
        ("circle", (float("nan"),), "radius"),
        ("ellipse", (2.0, float("inf")), "a and b"),
        ("ellipse", (0.0, 1.0), "a and b"),
        ("circle", (1e-110,), "circle radius"),  # speed**3 underflows: curvature inf
        ("circle", (1e200,), "circle radius"),  # speed overflows to inf
        ("circle", (1e-170,), "circle radius"),  # the norm squares 1e-170: speed 0
    ])
    def test_names_the_bad_parameter(self, kind, params, match):
        with pytest.raises(ValueError, match=match):
            make_curve(kind, 64, *params)

    def test_overflowing_arms_refused_without_warning(self):
        # arms * arms overflows in the second derivative, before the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="starfish amp and arms"):
                make_curve("starfish", 64, 0.3, 10**160)

    def test_integral_float_arms_accepted(self):
        c, c_int = make_curve("starfish", 64, 0.3, 5.0), make_curve("starfish", 64, 0.3, 5)
        assert np.array_equal(c.x, c_int.x) and np.array_equal(c.curvature, c_int.curvature)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.5, 2.5), (2.0, 1.0), (1.0, 1e-9)])
    def test_circle_and_ellipse_closed_forms(self, a, b):
        # the polar family with amp = 0 reproduces the closed forms exactly
        N = 1000
        c = make_curve("circle", N, a) if a == b else make_curve("ellipse", N, a, b)
        cos, sin = np.cos(c.t), np.sin(c.t)
        speed = np.linalg.norm(np.column_stack([-a * sin, b * cos]), axis=1)
        assert np.array_equal(c.t, 2.0 * np.pi * np.arange(N) / N)
        assert np.array_equal(c.x, np.column_stack([a * cos, b * sin]))
        assert np.array_equal(c.speed, speed)
        assert np.array_equal(c.normal, np.column_stack([b * cos, a * sin]) / speed[:, None])
        assert np.array_equal(c.curvature, (a * sin * (b * sin) + b * cos * (a * cos)) / speed**3)

    def test_sampled_polygons_are_simple(self):
        # every member of the polar family is star-shaped about the origin
        # and N >= 16 nodes turn through less than pi each, so no sampled
        # polygon self-intersects, down to aspect ratio 1e-12 and up to
        # amp 0.999 with 200 arms
        curves = [("circle", 1.0), ("circle", 2.5), ("ellipse", 2.0, 1.0),
                  ("ellipse", 1.0, 1e-6), ("ellipse", 1.0, 1e-12), ("ellipse", 1e-12, 1.0),
                  ("starfish", 0.3, 5), ("starfish", 0.999, 1), ("starfish", 0.999, 5),
                  ("starfish", 0.5, 200), ("starfish", 0.999, 200)]
        for kind, *params in curves:
            for N in (16, 18, 64, 250, 1000, 2048):
                assert not _coarse_intersection_scan(make_curve(kind, N, *params).x), (
                    kind, params, N)


class TestDlpKernel:
    def test_constant_on_circle(self):
        # on the unit circle the kernel equals -1/(4 pi) for every pair
        c = make_curve("circle", 64, 1.0)
        vals = dlp_kernel(c.x[0], c.x[1:], c.normal[1:])
        assert np.allclose(vals, -1.0 / (4.0 * np.pi), atol=1e-14)

    def test_radial_configuration(self):
        # target along the normal at distance rho: d = 1/(2 pi rho)
        y = np.array([0.0, 0.0])
        n_y = np.array([1.0, 0.0])
        for rho in (0.5, 2.0):
            val = dlp_kernel(y + rho * n_y, y, n_y)
            assert val == pytest.approx(1.0 / (2.0 * np.pi * rho), rel=1e-14)

    def test_odd_in_normal_component(self):
        y = np.array([0.3, -0.2])
        n_y = np.array([0.0, 1.0])
        x = y + np.array([0.4, 0.7])
        x_flip = y + np.array([0.4, -0.7])
        assert dlp_kernel(x, y, n_y) == pytest.approx(-dlp_kernel(x_flip, y, n_y), rel=1e-14)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            dlp_kernel(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))

    def test_broadcasts_to_pair_matrix(self):
        c = make_curve("starfish", 64, 0.3, 5)
        K = dlp_kernel(c.x[:8, None, :], c.x[None, 8:, :], c.normal[None, 8:, :])
        assert K.shape == (8, 56)
        for i in range(8):
            for j in range(56):
                assert K[i, j] == dlp_kernel(c.x[i], c.x[8 + j], c.normal[8 + j])
        # the full square includes the coincident pairs i == j
        with pytest.raises(ValueError, match="coincident"):
            dlp_kernel(c.x[:8, None, :], c.x[None, :, :], c.normal[None, :, :])


class TestAssemble:
    def test_gauss_identity_constant(self):
        # oracle: for x inside, integral of d(x, .) over the ellipse is -1
        # (adaptive quadrature of the continuous integrand, computed first)
        a, b = 2.0, 1.0
        x0 = np.array([0.31, -0.22])

        def integrand(t):
            y = np.array([a * np.cos(t), b * np.sin(t)])
            speed = np.hypot(a * np.sin(t), b * np.cos(t))
            n_y = np.array([b * np.cos(t), a * np.sin(t)]) / speed
            return dlp_kernel(x0, y, n_y) * speed

        val, _ = scipy.integrate.quad(integrand, 0.0, 2.0 * np.pi, limit=400)
        assert abs(val - (-1.0)) < 1e-10
        # discrete counterpart: the assembled system applied to ones
        curve = make_curve("ellipse", 256, a, b)
        g = assemble_bie(curve, np.zeros(256)).matrix @ np.ones(256)
        assert np.max(np.abs(g - (-1.0))) < 1e-10

    def test_circle_offdiagonal_entries(self):
        c = make_curve("circle", 64, 1.0)
        A = assemble_bie(c, np.zeros(64)).matrix
        w = 2.0 * np.pi / 64
        off = A[0, 1:]
        assert np.allclose(off, -w / (4.0 * np.pi), atol=1e-15)
        assert A[0, 0] == pytest.approx(-0.5 - w / (4.0 * np.pi), rel=1e-13)

    def test_entrywise_oracle_starfish(self):
        # w_j d(x_i, x_j) off the diagonal, w_i times the curvature limit
        # on it, minus 1/2
        c = make_curve("starfish", 64, 0.3, 5)
        A = assemble_bie(c, np.zeros(64)).matrix
        for i in range(64):
            for j in range(64):
                if i == j:
                    want = -c.curvature[i] / (4.0 * np.pi) * c.weights[i] - 0.5
                else:
                    want = dlp_kernel(c.x[i], c.x[j], c.normal[j]) * c.weights[j]
                assert A[i, j] == want, (i, j)

    @pytest.mark.parametrize("N", [16, 777, 2048])
    def test_row_blocks_bitwise_equal_one_shot(self, N):
        # 777 nodes (the first of a 778-node starfish) leave a short last block
        c = make_curve("starfish", N + N % 2, 0.3, 5)
        c = dataclasses.replace(c, **{k: getattr(c, k)[:N] for k in
                                      ("t", "x", "normal", "speed", "curvature", "weights")})
        A = assemble_bie(c, np.zeros(N)).matrix
        assert A.tobytes() == assemble_bie_matrix(c).tobytes()

    def test_entries_stable_under_refinement(self):
        # kernel values at shared nodes agree as N doubles
        c1 = make_curve("ellipse", 64, 2.0, 1.0)
        c2 = make_curve("ellipse", 128, 2.0, 1.0)
        A1 = assemble_bie(c1, np.zeros(64)).matrix
        A2 = assemble_bie(c2, np.zeros(128)).matrix
        # node i of c1 is node 2i of c2; weights halve with doubled N
        assert np.allclose(A1[0, 1:] / c1.weights[1:], A2[0, 2::2] / c2.weights[2::2],
                           atol=1e-13)


class TestSolveAndEval:
    def test_zero_data_zero_density(self):
        curve = make_curve("ellipse", 128, 2.0, 1.0)
        sigma = solve_interior_dirichlet(curve, np.zeros(128))
        assert np.max(np.abs(sigma)) < 1e-13

    def test_point_charge_interior_reconstruction(self):
        curve = make_curve("ellipse", 400, 2.0, 1.0)
        sigma = solve_interior_dirichlet(curve, point_charge_data(curve))
        targets = interior_targets(curve)
        u, near = eval_double_layer(curve, sigma, targets)
        u_exact = laplace_fundamental(np.linalg.norm(targets - CHARGE, axis=1))
        assert not near.any()
        assert np.max(np.abs(u - u_exact) / np.abs(u_exact)) <= 1e-10

    @pytest.mark.filterwarnings("ignore:.*node spacings.*:UserWarning")
    def test_spectral_convergence(self):
        # error drops at least 10x per doubling until machine precision
        # (the N = 32 curve is coarse enough to trip the near-target flag)
        errs = []
        for N in (32, 64, 128):
            curve = make_curve("ellipse", N, 2.0, 1.0)
            sigma = solve_interior_dirichlet(curve, point_charge_data(curve))
            targets = interior_targets(curve, n=10)
            u, _ = eval_double_layer(curve, sigma, targets)
            u_exact = laplace_fundamental(np.linalg.norm(targets - CHARGE, axis=1))
            errs.append(np.max(np.abs(u - u_exact) / np.abs(u_exact)))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 / 10.0 or e2 < 1e-12

    def test_structured_backends_match_dense(self):
        N = 2048
        curve = make_curve("ellipse", N, 2.0, 1.0)
        f = point_charge_data(curve)
        ref = solve_interior_dirichlet(curve, f, backend="dense")
        for backend in ("hodlr", "hbs"):
            sigma = solve_interior_dirichlet(curve, f, backend=backend, tol=1e-10)
            assert np.linalg.norm(sigma - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("backend", ["dense", "hodlr", "hbs"])
    def test_complex_data_is_linear(self, backend):
        # real and imaginary parts go through the solve and the evaluation;
        # a dropped part is an O(1) error, while real and complex products
        # round differently (1e-15 relative here for dense and hodlr, 1e-12
        # for the hbs inverse, whose entries exceed those of A^-1)
        curve = make_curve("ellipse", 256, 2.0, 1.0)
        f1 = point_charge_data(curve)
        f2 = np.cos(curve.t)
        sigma1, sigma2, sigma = (solve_interior_dirichlet(curve, f, backend=backend)
                                 for f in (f1, f2, f1 + 1j * f2))
        assert np.iscomplexobj(sigma)
        assert np.max(np.abs(sigma - (sigma1 + 1j * sigma2))) <= 1e-10 * np.max(np.abs(sigma))
        targets = interior_targets(curve, n=10)
        u = eval_double_layer(curve, sigma, targets)[0]
        u1, u2 = (eval_double_layer(curve, s, targets)[0] for s in (sigma1, sigma2))
        assert np.max(np.abs(u - (u1 + 1j * u2))) <= 1e-12 * np.max(np.abs(u))

    def test_constant_density_gauss_identity(self):
        curve = make_curve("ellipse", 512, 2.0, 1.0)
        targets = interior_targets(curve, n=15)
        u, _ = eval_double_layer(curve, np.ones(curve.N), targets)
        assert np.max(np.abs(u - (-1.0))) < 1e-10

    def test_centroid_value_vs_refined_trapezoid_oracle(self):
        # sigma = cos(t) on the unit circle, target at the center;
        # oracle: 1e6-point trapezoid rule of the continuous integral
        N = 256
        curve = make_curve("circle", N, 1.0)
        sigma = np.cos(curve.t)
        u, _ = eval_double_layer(curve, sigma, np.zeros((1, 2)))
        M = 10**6
        t = 2.0 * np.pi * np.arange(M) / M
        y = np.column_stack([np.cos(t), np.sin(t)])
        oracle = np.sum(
            (2.0 * np.pi / M) * dlp_kernel(np.zeros(2), y, y) * np.cos(t)
        )
        assert abs(u[0] - oracle) < 1e-12

    def test_depth_zero_hbs_matches_dense(self):
        # 40 nodes with leaf size 32: the HBS tree is the root alone
        curve = make_curve("ellipse", 40, 2.0, 1.0)
        f = point_charge_data(curve)
        ref = solve_interior_dirichlet(curve, f, backend="dense")
        sigma = solve_interior_dirichlet(curve, f, backend="hbs")
        assert np.linalg.norm(sigma - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_two_spacings_inside_flagged(self):
        curve = make_curve("starfish", 256, 0.3, 5)
        h = curve.max_spacing()
        targets = np.array([curve.x[10] - 2.0 * h * curve.normal[10],
                            curve.x[100] - 10.0 * h * curve.normal[100]])
        sigma = np.cos(curve.t)
        with pytest.warns(UserWarning, match="1 target"):
            u, near = eval_double_layer(curve, sigma, targets)
        assert near.tolist() == [True, False]
        for t, ut in zip(targets, u):
            plain = np.sum(dlp_kernel(t, curve.x, curve.normal) * curve.weights * sigma)
            assert abs(ut - plain) <= 1e-14 * np.sum(np.abs(curve.weights * sigma))

    def test_target_on_node_rejected(self):
        curve = make_curve("circle", 64, 1.0)
        with pytest.raises(ValueError, match="coincident"):
            eval_double_layer(curve, np.ones(64), curve.x[3:4])

    def test_near_boundary_flagged(self):
        curve = make_curve("circle", 64, 1.0)
        with pytest.warns(UserWarning, match="node spacings"):
            _, near = eval_double_layer(curve, np.ones(64), np.array([[0.99, 0.0]]))
        assert near[0]


class TestProxyCompression:
    def setup_method(self):
        self.curve = make_curve("starfish", 1024, 0.3, 5)
        self.system = assemble_bie(self.curve, np.zeros(1024)).matrix

    def panel(self, start, size=64):
        src = (np.arange(size) + start) % 1024
        c = self.curve.x[src].mean(axis=0)
        r_patch = np.max(np.linalg.norm(self.curve.x[src] - c, axis=1))
        dist = np.linalg.norm(self.curve.x - c, axis=1)
        far = np.where(dist > 2.0 * r_patch)[0]
        radius = max(1.5 * r_patch, 0.95 * dist[far].min())
        return src, far, c, radius

    def test_empty_far_set(self):
        src, _, c, radius = self.panel(0)
        f = proxy_compress_block(self.curve, src, np.empty(0, int), c, radius, 64, 1e-10)
        assert f.rank == 0

    def test_rank_close_to_dense_svd(self):
        src, far, c, radius = self.panel(128)
        f = proxy_compress_block(self.curve, src, far, c, radius, 64, 1e-10)
        block = self.system[np.ix_(far, src)]
        s = np.linalg.svd(block, compute_uv=False)
        assert f.rank <= eps_rank(s, 1e-10) + 3
        err = np.linalg.norm(f.todense() - block, 2)
        assert err <= 50 * 1e-10 * s[0]

    def test_shrunken_proxy_rejected(self):
        src, far, c, radius = self.panel(256)
        with pytest.raises(SeparationError):
            proxy_compress_block(self.curve, src, far, c, 0.5 * radius / 1.5, 64, 1e-10)

    def test_far_node_inside_proxy_rejected(self):
        src, far, c, radius = self.panel(256)
        bad_far = np.concatenate([far, [int((src[0] + len(src) + 2) % 1024)]])
        with pytest.raises(SeparationError):
            proxy_compress_block(self.curve, src, bad_far, c, radius, 64, 1e-10)


class TestMultipole:
    def test_monopole_exact_for_central_charge(self):
        targets = np.array([[2.0, 0.3], [3.0, -1.0]])
        for p in (1, 2, 5):
            u = multipole_approx(np.zeros((1, 2)), np.array([1.0]), targets,
                                 np.zeros(2), p)
            direct = -np.log(np.linalg.norm(targets, axis=1))
            assert np.allclose(u, direct, atol=1e-15)

    def test_error_ratio_matches_theory(self):
        # unit boxes at distance 1: worst-case charges at the corners
        src = 0.5 * np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
        q = np.array([1.0, 0.7, 1.3, 0.9])
        gx = np.linspace(1.5, 2.5, 21)
        gy = np.linspace(-0.5, 0.5, 21)
        targets = np.array([(a, b) for a in gx for b in gy])
        direct = np.array(
            [np.sum(q * -np.log(np.hypot(*(t - src).T))) for t in targets]
        )
        errs = []
        ps = range(2, 30)
        for p in ps:
            u = multipole_approx(src, q, targets, np.zeros(2), p)
            errs.append(np.max(np.abs(u - direct)))
        ratio = np.exp(np.polyfit(list(ps), np.log(errs), 1)[0])
        assert 0.40 <= ratio <= 0.55  # theory: sqrt(2)/3 ~ 0.471

    def test_high_order_matches_direct_sum(self):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.uniform(-0.5, 0.5, (50, 2))
        q = rng.standard_normal(50)
        targets = rng.uniform(-0.5, 0.5, (20, 2)) + np.array([2.0, 0.0])
        u = multipole_approx(src, q, targets, np.zeros(2), 40)
        direct = np.array([np.sum(q * -np.log(np.hypot(*(t - src).T))) for t in targets])
        assert np.max(np.abs(u - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_target_inside_forbidden_box(self):
        with pytest.raises(SeparationError):
            multipole_approx(
                np.array([[0.4, 0.4]]), np.array([1.0]),
                np.array([[1.0, 0.0]]), np.zeros(2), 5,
            )


@pytest.mark.parametrize("call, error, match", [
    (lambda: assemble_bie(make_curve("circle", 16, 1.0), np.ones(15)), ValueError,
     "boundary data must be sampled at the curve nodes"),
    (lambda: solve_interior_dirichlet(make_curve("circle", 16, 1.0), np.ones(16), backend="nd"),
     ValueError, "unknown backend 'nd'"),
    (lambda: multipole_approx(np.zeros((1, 2)), np.ones(1), [[3.0, 0.0]], np.zeros(2), 0),
     ValueError, r"need at least the monopole term \(p >= 1\)"),
], ids=["assemble-short-data", "dirichlet-nd-backend", "multipole-p0"])
def test_refused_inputs(call, error, match):
    with pytest.raises(error, match=match):
        call()
