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
