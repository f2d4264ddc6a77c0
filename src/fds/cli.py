"""`fds` command line front end: runs the experiments, emits CSV.

Every subcommand writes one CSV table (stdout by default, or --out),
with `#`-prefixed metadata lines before the header and numbers printed
to 17 significant digits so doubles round-trip exactly. Exit codes:
0 success, 2 flag validation, 3 numerical failure, 4 violated geometric
precondition.
"""

import argparse
import sys

import numpy as np

from . import bie2d, bvp1d, experiments, sparsend
from .linalg import SingularMatrixError

EXIT_FLAGS = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path, comments, header, rows, footer=()):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    for row in footer:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _spectrum_csv(result):
    rows = [(j + 1, s) for j, s in enumerate(result.sigmas)]
    ranks = result.metadata["tolerance_ranks"]
    footer = [(f"rank@{eps:.0e}", r) for eps, r in ranks.items()]
    return rows, footer


def _cmd_bvp1d(args):
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError(f"need 1 <= --n-min <= --n-max, got {args.n_min} and {args.n_max}")
    N_values = []
    N = args.n_min
    while N <= args.n_max:
        N_values.append(N)
        N *= 2
    rows = bvp1d.condition_study(N_values, case=args.case)
    _write_csv(
        args.out,
        [f"fds bvp1d case={args.case} n_min={args.n_min} n_max={args.n_max} seed={args.seed}"],
        ["N", "cond_fd", "cond_ie", "err_fd", "err_ie"],
        [(r.N, r.cond_fd, r.cond_ie, r.err_fd, r.err_ie) for r in rows],
    )


def _cmd_spectrum(args):
    result = experiments.spectrum_potential(
        args.kernel, args.grid_k, args.geometry, kappa=args.kappa, seed=args.seed
    )
    sampled = result.metadata["svd"] == "range_finder"
    _write_csv(
        args.out,
        [f"fds spectrum {result.label} seed={args.seed}",
         "values: seeded range finder, so the row count is its sample size and rows below"
         " about 1e-13 vary with --seed" if sampled else "values: dense SVD"],
        ["j", "sigma_rel"],
        *_spectrum_csv(result),
    )


def _cmd_admissibility(args):
    weak, strong = experiments.weak_vs_strong_spectrum(args.pts_per_box, seed=args.seed)
    n = min(len(weak.sigmas), len(strong.sigmas))
    _write_csv(
        args.out,
        [f"fds admissibility pts_per_box={args.pts_per_box} seed={args.seed}"],
        ["j", "weak_sigma", "strong_sigma"],
        [(j + 1, weak.sigmas[j], strong.sigmas[j]) for j in range(n)],
    )


_SHAPES = {
    "circle": ("circle", (1.0,)),
    "ellipse": ("ellipse", (2.0, 1.0)),
    "starfish": ("starfish", (0.3, 5)),
}


def _cmd_bie(args):
    kind, params = _SHAPES[args.shape]
    curve = bie2d.make_curve(kind, args.n, *params)
    charge = np.array([3.0, 1.5])
    f = bie2d.laplace_fundamental(np.linalg.norm(curve.x - charge, axis=1))
    sigma = bie2d.solve_interior_dirichlet(curve, f, backend=args.backend, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, 25)
    radii = rng.uniform(0.1, 0.5, 25)
    # interior points: shrink the curve shape toward its centroid
    centroid = curve.x.mean(axis=0)
    targets = centroid + radii[:, None] * (
        curve.x[(angles / (2 * np.pi) * curve.N).astype(int)] - centroid
    )
    u, _ = bie2d.eval_double_layer(curve, sigma, targets)
    u_exact = bie2d.laplace_fundamental(np.linalg.norm(targets - charge, axis=1))
    _write_csv(
        args.out,
        [
            f"fds bie shape={args.shape} n={args.n} backend={args.backend} "
            f"tol={args.tol:g} seed={args.seed}",
            f"boundary data: point charge at ({charge[0]:g}, {charge[1]:g})",
        ],
        ["target_x", "target_y", "u_computed", "u_exact", "abs_err"],
        [
            (t[0], t[1], ui, ue, abs(ui - ue))
            for t, ui, ue in zip(targets, u, u_exact)
        ],
    )


def _cmd_nd(args):
    helmholtz = args.kappa is not None
    if helmholtz and not 0 < args.kappa < np.inf:
        raise ValueError(f"--kappa must be a finite number > 0, got {args.kappa!r}")
    if args.schur:
        result = sparsend.schur_offdiag_spectrum(
            args.dim, args.n,
            operator="helmholtz" if helmholtz else "laplace",
            kappa=args.kappa,
        )
        _write_csv(
            args.out,
            [f"fds nd --schur {result.label} seed={args.seed}"],
            ["j", "sigma_rel"],
            *_spectrum_csv(result),
        )
        return
    m = -args.kappa**2 if helmholtz else None
    st = sparsend.assemble_stencil(args.dim, args.n, m)
    tree = sparsend.nd_partition(args.dim, args.n, leaf_cells=min(4, args.n))
    fac = sparsend.nd_factor(st, tree)
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(st.N)
    x = sparsend.nd_solve(fac, b)
    residual = float(np.linalg.norm(st.A @ x - b) / np.linalg.norm(b))
    _write_csv(
        args.out,
        [f"fds nd dim={args.dim} n={args.n} kappa={args.kappa or 0:g} seed={args.seed}"],
        ["metric", "value"],
        [("N", st.N), ("flops", fac.flops), ("residual", residual)],
    )


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = experiments.scaling_bench(args.target, sizes, tol=args.tol, seed=args.seed)
    _write_csv(
        args.out,
        [f"fds bench target={args.target} tol={args.tol:g} seed={args.seed}"],
        ["N", "build_s", "apply_s", "stored_scalars", "residual"],
        [(r.N, r.build_s, r.apply_s, r.stored_scalars, r.residual) for r in rows],
    )


def build_parser():
    p = argparse.ArgumentParser(
        prog="fds",
        description="Rank-structured fast direct solver experiments (CSV output).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (unsigned 64-bit)")

    sp = sub.add_parser("bvp1d", help="FD vs IE conditioning study")
    sp.add_argument("--case", choices=["osc", "nonosc"], required=True)
    sp.add_argument("--n-min", type=int, default=64)
    sp.add_argument("--n-max", type=int, default=2048)
    common(sp)
    sp.set_defaults(func=_cmd_bvp1d)

    sp = sub.add_parser("spectrum", help="box-to-box potential operator spectrum")
    sp.add_argument("--kernel", choices=["laplace", "helmholtz"], required=True)
    sp.add_argument("--kappa", type=float, default=None, help="wavenumber (helmholtz only)")
    sp.add_argument("--grid-k", type=int, default=12)
    sp.add_argument("--geometry", choices=["directional", "global"], default="directional")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("admissibility", help="weak vs strong block-row spectra")
    sp.add_argument("--pts-per-box", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_admissibility)

    sp = sub.add_parser("bie", help="interior Dirichlet Laplace point-charge test")
    sp.add_argument("--shape", choices=sorted(_SHAPES), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--backend", choices=["dense", "hodlr", "hbs"], default="dense")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(func=_cmd_bie)

    sp = sub.add_parser("nd", help="nested-dissection factorization / Schur spectra")
    sp.add_argument("--dim", type=int, choices=[2, 3], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--schur", action="store_true", help="emit Schur block spectrum")
    common(sp)
    sp.set_defaults(func=_cmd_nd)

    sp = sub.add_parser("bench", help="build/apply scaling benchmarks")
    sp.add_argument(
        "--target",
        choices=["hodlr-inv", "hbs-inv", "nd-factor", "bie-solve"],
        required=True,
    )
    sp.add_argument("--sizes", required=True, help="comma-separated size list")
    sp.add_argument("--tol", type=float, default=1e-10)
    common(sp)
    sp.set_defaults(func=_cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except bie2d.SeparationError as exc:
        print(f"fds: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SingularMatrixError, np.linalg.LinAlgError) as exc:
        print(f"fds: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"fds: invalid flags: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    return 0


if __name__ == "__main__":
    sys.exit(main())
