"""The four benchmark workloads, each driving fds through public calls.

Every workload is a closed loop with one client: set up a solver at each
size of its ladder, then, at the top size, run jobs of "set up, then
solve a fixed number of right-hand sides one per call". Inputs come from
the run's seeded generator and are made before the timed region; oracle
checks run after it. Each call into ``fds`` sits inside a span named
after the public function, so a traced run splits the time by layer.

A workload maps its span names onto three stages shared by all of them
(``assemble``, ``build``, ``apply``), which is how the per-layer metrics
stay defined on every workload; the module-level numbers go into the
run's detail record.
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.special

from fds import bie2d, bvp1d, experiments, hbs, hodlr, quadrature, sparsend, special
from fds.tree import build_uniform_tree

TOL = 1e-10  # compression tolerance of the structured solvers
LEAF = 64


class Workload:
    """Base: subclasses set the class attributes and the hooks below."""

    name = ""
    rungs = ()  # ladder of problem sizes, ascending; the last is the top size
    solves_per_job = 0
    ladder_reps = 0  # setups per lower rung
    min_jobs = 0  # top-size jobs always run, whatever --seconds says
    slots = {}  # span name -> stage
    residual_limit = 0.0
    error_limit = 0.0

    def size(self, rung):
        """Unknowns at a rung, the x axis of setup_slope."""
        return rung

    def prepare(self, seed):
        """Untimed oracle state for the whole run."""

    def setup(self, rung, tr):
        raise NotImplementedError

    def check_setup(self, state):
        """Oracle check of a top-size setup; returns a failure message or None."""
        return None

    def make_inputs(self, rng):
        raise NotImplementedError

    def solve(self, state, x, tr):
        raise NotImplementedError

    def evaluate(self, state, x, answer, tr):
        """Post-processing that belongs to the answer but not to the solve."""
        return None

    def check(self, state, inputs, answers, evals):
        """Per-solve (relative residual, error) against the oracle."""
        raise NotImplementedError

    def counts(self, state):
        """stored_scalars and rank_max of a top-size setup."""
        raise NotImplementedError

    def detail(self, state):
        """Module-level numbers of a top-size setup, for the detail record."""
        return {}

    def standalone(self, tr):
        """Traced-only standalone calls for layers no span reaches."""


def _stratified(rng, n):
    """n points in [0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _directional_distances(nodes):
    """Distances from the k x k tensor grid on [-0.5, 0.5]^2 (``nodes`` per
    axis) to the same grid shifted to the box centered at (2, 0)."""
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    src = np.column_stack([X.ravel(), Y.ravel()])
    return np.linalg.norm(src[:, None, :] + [2.0, 0.0] - src[None, :, :], axis=-1)


class _Manufactured(Workload):
    """Right-hand sides b = A x* with seeded x*, one row per solve; the
    oracle is the residual against A and the forward error against x*."""

    A = None  # the assembled top-size operator, set by prepare()

    def make_inputs(self, rng):
        Xs = rng.standard_normal((self.solves_per_job, self.A.shape[0]))
        B = (self.A @ Xs.T).T
        return [{"b": B[k], "exact": Xs[k]} for k in range(len(Xs))]

    def check(self, state, inputs, answers, evals):
        X = np.vstack(answers)
        B = np.vstack([x["b"] for x in inputs])
        Xs = np.vstack([x["exact"] for x in inputs])
        res = np.linalg.norm((state["A"] @ X.T).T - B, axis=1) / np.linalg.norm(B, axis=1)
        err = np.linalg.norm(X - Xs, axis=1) / np.linalg.norm(Xs, axis=1)
        return list(res), list(err)


# -- bie-starfish -----------------------------------------------------------------


class BieStarfish(Workload):
    name = "bie-starfish"
    rungs = (512, 1024, 2048)
    solves_per_job = 100
    ladder_reps = 4
    min_jobs = 6
    slots = {
        "bie2d.make_curve": "assemble",
        "bie2d.assemble_bie": "assemble",
        "tree.build_uniform_tree": "build",
        "hbs.compress_to_hbs": "build",
        "hbs.hbs_invert": "build",
        "hbs.HbsInverse.apply": "apply",
    }
    residual_limit = 1e-8
    error_limit = 1e-8

    def _curve(self, N):
        return bie2d.make_curve("starfish", N, 0.3, 5)

    def prepare(self, seed):
        self.curve = self._curve(self.rungs[-1])
        self.targets = self._interior_targets(self.curve)

    @staticmethod
    def _interior_targets(c, count=32, depths=(5.5, 7, 10, 20)):
        """Fixed evaluation points along inward normals, 5.5 to 20 node
        spacings inside the curve (within 5, the plain rule loses accuracy)."""
        h = c.max_spacing()
        idx = (np.arange(count) * c.N) // count
        depth = h * np.resize(np.asarray(depths, dtype=float), count)
        P = c.x[idx] - depth[:, None] * c.normal[idx]
        d = np.min(np.linalg.norm(P[:, None, :] - c.x[None, :, :], axis=-1), axis=1)
        if np.any(d < 5.0 * h):
            raise RuntimeError("an interior target lies closer than 5 node spacings")
        return P

    def setup(self, N, tr):
        with tr.span("bie2d.make_curve"):
            curve = self._curve(N)
        with tr.span("bie2d.assemble_bie"):
            system = bie2d.assemble_bie(curve, np.zeros(N))
        with tr.span("tree.build_uniform_tree"):
            tree = build_uniform_tree(N, LEAF)
        with tr.span("hbs.compress_to_hbs"):
            H = hbs.compress_to_hbs(system.matrix, tree, TOL)
        with tr.span("hbs.hbs_invert"):
            inv = hbs.hbs_invert(H)
        return {"curve": curve, "A": system.matrix, "H": H, "inv": inv}

    def make_inputs(self, rng):
        # point charges outside the curve (radius <= 1.3): the field they
        # make is harmonic inside, so it is the exact answer
        R = self.solves_per_job
        ang = 2.0 * np.pi * _stratified(rng, R)
        rad = 1.5 + 1.5 * _stratified(rng, R)
        Z = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        F = bie2d.laplace_fundamental(
            np.linalg.norm(self.curve.x[None, :, :] - Z[:, None, :], axis=-1))
        U = bie2d.laplace_fundamental(
            np.linalg.norm(self.targets[None, :, :] - Z[:, None, :], axis=-1))
        return [{"f": F[k], "exact": U[k]} for k in range(R)]

    def solve(self, state, x, tr):
        with tr.span("hbs.HbsInverse.apply"):
            return state["inv"].apply(x["f"])

    def evaluate(self, state, x, sigma, tr):
        with tr.span("bie2d.eval_double_layer"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return bie2d.eval_double_layer(state["curve"], sigma, self.targets)

    def check(self, state, inputs, answers, evals):
        S = np.column_stack(answers)
        Fm = np.column_stack([x["f"] for x in inputs])
        res = np.linalg.norm(state["A"] @ S - Fm, axis=0) / np.linalg.norm(Fm, axis=0)
        err = []
        for x, (u, near) in zip(inputs, evals):
            err.append(np.inf if near.any() else float(np.max(np.abs(u - x["exact"]))))
        return list(res), err

    def counts(self, state):
        H = state["H"]
        return {"stored_scalars": hbs.hbs_storage(H)["stored_scalars"],
                "rank_max": max(H.per_level_ranks().values())}

    def detail(self, state):
        H, inv = state["H"], state["inv"]
        out = {"hbs.stored_scalars": hbs.hbs_storage(H)["stored_scalars"],
               "hbs.cond_max": max(inv.cond_estimates.values())}
        for ell, r in H.per_level_ranks().items():
            out[f"hbs.rank.l{ell}"] = r
        return out


# -- bvp1d-stream -----------------------------------------------------------------


class Bvp1dStream(_Manufactured):
    name = "bvp1d-stream"
    rungs = (1024, 2048, 4096)
    solves_per_job = 800
    ladder_reps = 3
    min_jobs = 5
    slots = {
        "bvp1d.Bvp1dProblem.from_functions": "assemble",
        "bvp1d.assemble_nystrom": "assemble",
        "tree.build_uniform_tree": "build",
        "hodlr.compress_to_hodlr": "build",
        "hodlr.invert_multiplicative": "build",
        "hodlr.HodlrInverseMultiplicative.apply": "apply",
    }
    residual_limit = 1e-8
    error_limit = 1e-8

    @staticmethod
    def _problem(N):
        # the coefficients of the paper's Fig. 2 conditioning study
        return bvp1d.Bvp1dProblem.from_functions(
            0.0, 1.0, N,
            lambda x: 100.0 * (1.0 + x) * np.cos(x),
            lambda x: 1.0 + np.cos(1.0 + x))

    def prepare(self, seed):
        self.A, _ = bvp1d.assemble_nystrom(self._problem(self.rungs[-1]))

    def setup(self, N, tr):
        with tr.span("bvp1d.Bvp1dProblem.from_functions"):
            p = self._problem(N)
        with tr.span("bvp1d.assemble_nystrom"):
            A, _ = bvp1d.assemble_nystrom(p)
        with tr.span("tree.build_uniform_tree"):
            tree = build_uniform_tree(N, LEAF)
        with tr.span("hodlr.compress_to_hodlr"):
            H = hodlr.compress_to_hodlr(A, tree, TOL)
        with tr.span("hodlr.invert_multiplicative"):
            inv = hodlr.invert_multiplicative(H)
        return {"A": A, "H": H, "inv": inv}

    def solve(self, state, x, tr):
        with tr.span("hodlr.HodlrInverseMultiplicative.apply"):
            return state["inv"].apply(x["b"])

    def counts(self, state):
        rep = hodlr.storage_report(state["H"])
        return {"stored_scalars": rep["stored_scalars"], "rank_max": rep["max_rank"]}

    def detail(self, state):
        rep = hodlr.storage_report(state["H"])
        inv = hodlr.storage_report(state["inv"])
        return {"hodlr.stored_scalars": rep["stored_scalars"],
                "hodlr.inv_stored_scalars": inv["stored_scalars"],
                "hodlr.rank_max": rep["max_rank"]}


# -- nd-poisson2d -----------------------------------------------------------------


class NdPoisson2d(_Manufactured):
    name = "nd-poisson2d"
    rungs = (32, 64, 128)
    solves_per_job = 25
    ladder_reps = 4
    min_jobs = 4
    leaf_cells = 4
    slots = {
        "sparsend.assemble_stencil": "assemble",
        "sparsend.nd_partition": "build",
        "sparsend.nd_factor": "build",
        "sparsend.nd_solve": "apply",
    }
    residual_limit = 1e-10
    error_limit = 1e-8

    def size(self, n):
        return n * n

    def prepare(self, seed):
        self.A = sparsend.assemble_stencil(2, self.rungs[-1]).A

    def setup(self, n, tr):
        with tr.span("sparsend.assemble_stencil"):
            st = sparsend.assemble_stencil(2, n)
        with tr.span("sparsend.nd_partition"):
            tree = sparsend.nd_partition(2, n, self.leaf_cells)
        with tr.span("sparsend.nd_factor"):
            fac = sparsend.nd_factor(st, tree)
        return {"A": st.A, "fac": fac}

    def solve(self, state, x, tr):
        with tr.span("sparsend.nd_solve"):
            return sparsend.nd_solve(state["fac"], x["b"])

    @staticmethod
    def _front_scalars(fac):
        return sum(fr.lu[0].size + fr.X.size + fr.F_BS.size for fr in fac.fronts)

    def counts(self, state):
        fac = state["fac"]
        return {"stored_scalars": self._front_scalars(fac),
                "rank_max": max(len(fr.sep) for fr in fac.fronts)}

    def detail(self, state):
        fac = state["fac"]
        return {"sparsend.flops": fac.flops,
                "sparsend.front_scalars": self._front_scalars(fac)}


# -- helmholtz-spectrum -------------------------------------------------------------


class HelmholtzSpectrum(Workload):
    name = "helmholtz-spectrum"
    rungs = (33, 40, 48)  # grid_k; all above the exact-SVD limit of 1024 nodes
    solves_per_job = 34
    ladder_reps = 2
    min_jobs = 3
    kappa = 80.0
    query_grid = 12
    rank_want = 31  # acceptance criterion 3 at kappa = 80
    slots = {
        "quadrature.gauss_legendre[standalone]": "assemble",
        "special.hankel0_first_kind[standalone]": "assemble",
        "experiments.spectrum_potential": "build",
        "experiments.spectrum_potential[query]": "apply",
    }
    residual_limit = 1e-10
    error_limit = 1e-10

    def size(self, k):
        return k * k

    def prepare(self, seed):
        self.seed = seed

    def setup(self, k, tr):
        with tr.span("experiments.spectrum_potential"):
            res = experiments.spectrum_potential(
                "helmholtz", k, "directional", kappa=self.kappa, seed=self.seed)
        return {"spectrum": res, "grid_k": k}

    def check_setup(self, state):
        rank = state["spectrum"].rank_at(1e-10)
        if abs(rank - self.rank_want) > 2:
            return f"rank_at(1e-10) = {rank}, want {self.rank_want} +- 2"
        return None

    def make_inputs(self, rng):
        return [{"kappa": float(k)} for k in 20.0 + 60.0 * _stratified(rng, self.solves_per_job)]

    def solve(self, state, x, tr):
        with tr.span("experiments.spectrum_potential[query]"):
            return experiments.spectrum_potential(
                "helmholtz", self.query_grid, "directional", kappa=x["kappa"], seed=self.seed)

    @staticmethod
    def _reference(k, kappa):
        """Normalized spectrum from numpy/scipy alone (independent oracle)."""
        t, w = np.polynomial.legendre.leggauss(k)
        sw = np.sqrt(np.outer(w / 2.0, w / 2.0).ravel())
        d = _directional_distances(t / 2.0)
        V = sw[:, None] * sw[None, :] * 0.25j * scipy.special.hankel1(0, kappa * d)
        s = scipy.linalg.svdvals(V)
        return s / s[0]

    def check(self, state, inputs, answers, evals):
        res, err = [], []
        for x, r in zip(inputs, answers):
            ref = self._reference(self.query_grid, x["kappa"])
            diff = r.sigmas - ref
            res.append(float(np.linalg.norm(diff) / np.linalg.norm(ref)))
            err.append(float(np.max(np.abs(diff))))
        return res, err

    def counts(self, state):
        n = state["grid_k"] ** 2
        return {"stored_scalars": n * n, "rank_max": state["spectrum"].rank_at(1e-10)}

    def detail(self, state):
        res = state["spectrum"]
        return {f"experiments.rank_at_{eps:g}": res.rank_at(eps) for eps in (1e-5, 1e-10)}

    def standalone(self, tr):
        """gauss_legendre and hankel0 on the top-size grid and distances."""
        k = self.rungs[-1]
        with tr.span("quadrature.gauss_legendre[standalone]"):
            rule = quadrature.gauss_legendre(k, -0.5, 0.5)
        d = _directional_distances(rule.nodes)
        with tr.span("special.hankel0_first_kind[standalone]"):
            special.hankel0_first_kind(self.kappa * d)


WORKLOADS = {w.name: w for w in (BieStarfish, Bvp1dStream, NdPoisson2d, HelmholtzSpectrum)}
