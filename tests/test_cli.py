"""Command line front end: CSV formats, determinism, and exit codes."""

import pytest

from fds.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_spectrum_csv_and_rank_footer(capsys):
    code, out = run_cli(
        ["spectrum", "--kernel", "laplace", "--grid-k", "8",
         "--geometry", "directional"], capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["j", "sigma_rel"]
    footer = [r for r in rows if r[0].startswith("rank@")]
    assert [r[0] for r in footer] == [
        "rank@1e-05", "rank@1e-06", "rank@1e-07", "rank@1e-08",
        "rank@1e-09", "rank@1e-10",
    ]
    data = [r for r in rows if not r[0].startswith("rank@")]
    assert len(data) == 64
    assert float(data[0][1]) == 1.0


def test_spectrum_byte_identical_reruns(capsys):
    args = ["spectrum", "--kernel", "helmholtz", "--kappa", "20",
            "--grid-k", "8", "--geometry", "directional", "--seed", "42"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("grid_k, note, nrows", [
    ("32", "# values: dense SVD\n", 1024),
    ("33", "# values: seeded range finder, so the row count is its sample size and rows"
           " below about 1e-13 vary with --seed\n", 72),
], ids=["dense", "sampled"])
def test_spectrum_says_which_svd(grid_k, note, nrows, capsys):
    # 32^2 = 1024 nodes is the last grid of the dense SVD; 33^2 is sampled
    code, out = run_cli(["spectrum", "--kernel", "helmholtz", "--kappa", "80",
                         "--grid-k", grid_k], capsys)
    assert code == 0
    comments = [l + "\n" for l in out.splitlines() if l.startswith("#")]
    assert comments[1:] == [note]
    header, rows = parse_csv(out)
    assert header == ["j", "sigma_rel"]
    assert len([r for r in rows if not r[0].startswith("rank@")]) == nrows


def test_round_trip_precision(capsys):
    _, out = run_cli(
        ["spectrum", "--kernel", "laplace", "--grid-k", "6",
         "--geometry", "directional"], capsys,
    )
    _, rows = parse_csv(out)
    vals = [float(r[1]) for r in rows if not r[0].startswith("rank@")]
    # 17 significant digits round-trip doubles exactly
    assert all(float(format(v, ".17g")) == v for v in vals)


def test_bvp1d_subcommand(capsys):
    code, out = run_cli(
        ["bvp1d", "--case", "nonosc", "--n-min", "64", "--n-max", "128"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "cond_fd", "cond_ie", "err_fd", "err_ie"]
    assert [r[0] for r in rows] == ["64", "128"]


@pytest.mark.parametrize("n_min, n_max", [("0", "128"), ("-3", "128"), ("128", "64")])
def test_bvp1d_size_range_exits_2(n_min, n_max, capsys):
    # N doubles from n_min while N <= n_max, which from 0 or below never ends
    code = main(["bvp1d", "--case", "nonosc", "--n-min", n_min, "--n-max", n_max])
    assert code == 2
    assert (f"need 1 <= --n-min <= --n-max, got {n_min} and {n_max}"
            in capsys.readouterr().err)


def test_admissibility_subcommand(capsys):
    code, out = run_cli(["admissibility", "--pts-per-box", "20"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["j", "weak_sigma", "strong_sigma"]
    assert len(rows) == 20


def test_bie_subcommand(capsys):
    code, out = run_cli(
        ["bie", "--shape", "circle", "--n", "64", "--backend", "dense"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["target_x", "target_y", "u_computed", "u_exact", "abs_err"]
    assert len(rows) == 25
    assert max(float(r[4]) for r in rows) < 1e-8


def test_bie_hodlr_backend(capsys):
    code, out = run_cli(
        ["bie", "--shape", "starfish", "--n", "256", "--backend", "hodlr"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 25
    assert max(float(r[4]) for r in rows) < 1e-8


@pytest.mark.filterwarnings("ignore:.*node spacings.*:UserWarning")
def test_bie_hbs_on_depth_zero_tree(capsys):
    # 40 nodes give an HBS tree of depth 0, which is a valid input
    code, out = run_cli(
        ["bie", "--shape", "ellipse", "--n", "40", "--backend", "hbs"], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 25


def test_nd_subcommand_metrics_and_schur(capsys):
    code, out = run_cli(["nd", "--dim", "2", "--n", "16"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["metric", "value"]
    metrics = {r[0]: float(r[1]) for r in rows}
    assert metrics["N"] == 256 and metrics["residual"] < 1e-12

    code, out = run_cli(["nd", "--dim", "2", "--n", "32", "--schur"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["j", "sigma_rel"]


@pytest.mark.parametrize("dim", [2, 3])
def test_nd_smallest_grid(dim, capsys):
    # n = 3, the smallest grid assemble_stencil takes, is one front of 3^dim cells
    code, out = run_cli(["nd", "--dim", str(dim), "--n", "3"], capsys)
    assert code == 0
    metrics = {r[0]: float(r[1]) for r in parse_csv(out)[1]}
    assert metrics["N"] == 3**dim and metrics["residual"] < 1e-14


def test_bench_nd_factor_smallest_grid(capsys):
    code, out = run_cli(["bench", "--target", "nd-factor", "--sizes", "3,4"], capsys)
    assert code == 0
    rows = parse_csv(out)[1]
    assert [r[0] for r in rows] == ["9", "16"]
    assert all(float(r[4]) < 1e-14 for r in rows)


def test_bench_subcommand(capsys):
    code, out = run_cli(
        ["bench", "--target", "hbs-inv", "--sizes", "128,256"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "build_s", "apply_s", "stored_scalars", "residual"]
    assert [r[0] for r in rows] == ["128", "256"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code, _ = run_cli(
        ["nd", "--dim", "2", "--n", "8", "--out", str(path)], capsys
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("#") and text.endswith("\n")
    assert "\r" not in text


def test_exit_code_flag_validation(capsys):
    code, _ = run_cli(
        ["spectrum", "--kernel", "helmholtz", "--grid-k", "8",
         "--geometry", "directional"], capsys,  # kappa missing
    )
    assert code == 2


def test_spectrum_laplace_with_kappa_exits_2(capsys):
    # the kappa used to be dropped without a word and still recorded
    code = main(["spectrum", "--kernel", "laplace", "--kappa", "80", "--grid-k", "6"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "kappa" in err


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_spectrum_non_finite_kappa_exits_2(kappa, capsys):
    code = main(["spectrum", "--kernel", "helmholtz", "--kappa", kappa, "--grid-k", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "kappa" in err and "log singularity" not in err


@pytest.mark.parametrize("schur", [False, True])
@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0", "-3"])
def test_nd_bad_kappa_exits_2_before_assembly(kappa, schur, monkeypatch, capsys):
    # a non-finite kappa used to reach the stencil and fail there without
    # naming kappa; kappa <= 0 silently ran Laplace
    from fds import sparsend

    def no_assembly(*args, **kwargs):
        raise AssertionError("the stencil was assembled")

    monkeypatch.setattr(sparsend, "assemble_stencil", no_assembly)
    code = main(["nd", "--dim", "2", "--n", "8", f"--kappa={kappa}"] + ["--schur"] * schur)
    err = capsys.readouterr().err
    assert code == 2
    assert "kappa" in err and "infs or NaNs" not in err


def test_exit_code_flag_value_range(capsys):
    code, _ = run_cli(["admissibility", "--pts-per-box", "8"], capsys)
    assert code == 2  # outside the validated [16, 400] range


def test_exception_to_exit_code_mapping(monkeypatch, capsys):
    from fds import bie2d, cli
    from fds.linalg import SingularMatrixError

    for exc, expected in [
        (SingularMatrixError("singular front"), 3),
        (bie2d.SeparationError("proxy circle touches sources"), 4),
        (ValueError("kappa must be positive"), 2),
    ]:
        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_cmd_nd", fail)
        code = cli.main(["nd", "--dim", "2", "--n", "8"])
        assert code == expected, exc
        capsys.readouterr()


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--kernel", "maxwell"])
    assert exc.value.code == 2
