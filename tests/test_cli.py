import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypspeed.cli import (_CSV_CHUNK_ROWS, CSV_COLUMNS, _csv, _fixed_cells, main, parse_args,
                          run)

from test_speeds import TABLE_DOMAINS

KOEBE = '{"type":"koebe","p":[0,0]}'
COMB = '{"type":"comb","teeth":[[1,1],[2,3]]}'
STRIP = '{"type":"strip","r":1.5707963267948966}'
HALFPLANE = '{"type":"halfplane","p":[0,0]}'
SECTOR_FLAT = '{"type":"sector","p":[0,0],"alpha":3.141592653589793,"beta":0}'
#: domains with their apex where p + 1 no longer resolves unit steps
FAR_DOMAINS = [
    '{"type":"halfplane","p":[1e308,1e308]}',
    '{"type":"koebe","p":[1e300,-1e300]}',
    '{"type":"halfplane","p":[9007199254740992.0,0]}',
    '{"type":"halfplane","p":[1e17,0]}',
    *(f'{{"type":"{kind}","p":{p}{extra}}}'
      for p in ("[1e16,0]", "[-1e300,1e300]", "[9007199254740992,-3e20]")
      for kind, extra in (("sector", ',"alpha":0.7,"beta":1.9'), ("koebe", ""),
                          ("halfplane", ""))),
]


def run_cli(argv):
    return run(parse_args(argv))


class TestSpeeds:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "speeds.csv"
        code = run_cli(["speeds", "--domain", KOEBE, "--t-min", "1", "--t-max", "1e8",
                        "--points", "512", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,v,v_o,v_T,log_rho,theta"
        assert len(lines) == 513

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["speeds", "--domain", KOEBE, "--points", "64"]
        assert run_cli(argv + ["-o", str(a)]) == 0
        assert run_cli(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_comb_rejected_exit_3(self, capsys):
        assert run_cli(["speeds", "--domain", COMB, "--points", "4"]) == 3

    def test_malformed_json_exit_2(self):
        assert run_cli(["speeds", "--domain", "{broken", "--points", "4"]) == 2

    def test_domain_file(self, tmp_path):
        f = tmp_path / "dom.json"
        f.write_text(KOEBE)
        out = tmp_path / "o.csv"
        assert run_cli(["speeds", "--domain", str(f), "--points", "4", "-o", str(out)]) == 0

    @pytest.mark.parametrize("argv", [
        ["--domain", STRIP, "--t-max", "1e308"],  # log rho = pi t / r = 2t overflows
        ["--domain", STRIP, "--t-max", "inf"],
        ["--domain", STRIP, "--t-max", "nan"],
        ["--domain", '{"type":"halfplane","p":[NaN,0]}'],
        ["--domain", '{"type":"comb","teeth":[[1,1],[Infinity,3]]}'],
    ], ids=["overflow", "inf", "nan", "nan_domain", "inf_tooth"])
    def test_out_of_range_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speeds", *argv, "--points", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("domain", FAR_DOMAINS)
    def test_far_offset_table_matches_the_origin(self, domain, capsys):
        # translating the domain leaves the semigroup and its speeds alone:
        # h(0) = p + 1 on a half plane rounds onto its boundary from 2**52
        # on, but the orbit runs at h(0) - p + it = 1 + it
        argv = ["speeds", "--t-max", "1e12", "--points", "64", "--domain"]
        assert run_cli(argv + [domain]) == 0
        far = capsys.readouterr().out
        near = json.dumps({**json.loads(domain), "p": [0, 0]})
        assert run_cli(argv + [near]) == 0
        assert far == capsys.readouterr().out

    @pytest.mark.parametrize("p", ["9007199254740992.0", "1e16", "1e17"])
    def test_axis_offset_orbit_stays_off_the_axis(self, p, capsys):
        # h(0) = p + 1 rounds to p from 2**52 on; the orbit runs relative to
        # the apex at 1 + it, so its argument theta is atan2(t, 1), not the
        # pi/2 of a point on the boundary axis
        argv = ["speeds", "--domain", f'{{"type":"halfplane","p":[{p},0]}}', "--points", "4"]
        assert run_cli(argv) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4 and rows[0][0] == 1.0
        assert [row[5] for row in rows] == [math.atan2(row[0], 1.0) for row in rows]

    def test_domain_path_is_a_directory_exit_2(self, tmp_path, capsys):
        assert run_cli(["speeds", "--domain", str(tmp_path), "--points", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(["speeds", "--domain", KOEBE, "--points", "4", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    def test_strip_past_its_time_range_names_the_time(self, capsys):
        # log rho = pi t / r = 2t overflows from t = 9e307 on; an 8-point
        # grid to 1.7e308 reaches that only at its last time
        assert run_cli(["speeds", "--domain", STRIP, "--t-max", "1.7e308",
                        "--points", "8"]) == 2
        assert capsys.readouterr().err == (
            "error: orbit time t=1.7e+308 is past the supported time range: "
            "the half-plane log rho overflows a double\n")

    @pytest.mark.parametrize("r", ["5e-324", "1e-310"])
    def test_too_thin_strip_exit_2(self, r, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speeds", "--domain", f'{{"type":"strip","r":{r}}}', "--points", "4"])
        assert exc.value.code == 2
        assert f"strip width {float(r)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["1e308", "1.7e308"])
    @pytest.mark.parametrize("domain", [HALFPLANE, SECTOR_FLAT], ids=["halfplane", "sector_flat"])
    def test_near_largest_double_exit_0(self, domain, t_max, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speeds", "--domain", domain, "--t-max", t_max, "--points", "4"])
        assert exc.value.code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(last[0]) == pytest.approx(float(t_max))
        assert math.isfinite(float(last[3]))


#: sha256 of `hypspeed speeds --domain D --t-max T --points 512` for the
#: tables domains at T = 1e8 and 1e12: any change to a digit of a speed table
#: shows here.  Re-recorded when orbits moved to coordinates relative to the
#: apex, after a 50-digit check of every cell: the four domains with p != 0
#: changed, by at most 4 ulp, and the three translates of another domain
#: (the shifted half plane and Koebe domain, and the slit sector at 0.5i,
#: which is Koebe(0) moved up) now print their twin's table byte for byte
SPEEDS_DIGESTS = [
    ("ce06bea5267b8c1a2433269ec19ce4884e4291672ff97fbf627f89a740d38da3",
     "32a5df26effdfbfa4caf555593cb6924fbd77603efefeee161f91d640c813a40"),
    ("ebe2f60a8f923360aaacb1ddbbfa39f846aaaad5f5786004164015112ab7bb9b",
     "2149f73ec0c26df260e50afeb5331f7a6cc55667259a2f1b0f6f88ec50fcd713"),
    ("37ed45529a98aed41f85e7b986503c7f4d36d48719a53f2356b2a728644b9871",
     "6fe1d9a6d0bb545b3e09316d9b82a84a72548c7c1d048524f7c1acae13127a33"),
    ("ebe2f60a8f923360aaacb1ddbbfa39f846aaaad5f5786004164015112ab7bb9b",
     "2149f73ec0c26df260e50afeb5331f7a6cc55667259a2f1b0f6f88ec50fcd713"),
    ("d160d8efc13edb1cab4e1e8f25f5b89e0cc3e4c3ec5927dbdba3c70f44b2d621",
     "df4fb464f0b71c5df18906a7ad41f7da5c035adf461ccddbb64ffc335633163f"),
    ("22bd60f3e58f3666751c13cfd80c62f92684df89b192e5ceb6bd78a837a10596",
     "ac68841fa0acc4ba9420735507b8e234055c251a6ec29f83b9155af38e417bcc"),
    ("d160d8efc13edb1cab4e1e8f25f5b89e0cc3e4c3ec5927dbdba3c70f44b2d621",
     "df4fb464f0b71c5df18906a7ad41f7da5c035adf461ccddbb64ffc335633163f"),
    ("d160d8efc13edb1cab4e1e8f25f5b89e0cc3e4c3ec5927dbdba3c70f44b2d621",
     "df4fb464f0b71c5df18906a7ad41f7da5c035adf461ccddbb64ffc335633163f"),
    ("f93929a44096e765ff04f879f56273012dbfd288d151cd5c6daeac996ff517f8",
     "2829d1d416b81c528fddeb46e4f5669d9e94efe65cfe3c39c7f7209d32af459d"),
    ("ebe2f60a8f923360aaacb1ddbbfa39f846aaaad5f5786004164015112ab7bb9b",
     "2149f73ec0c26df260e50afeb5331f7a6cc55667259a2f1b0f6f88ec50fcd713"),
]


@pytest.mark.parametrize("t_max", ["1e8", "1e12"])
@pytest.mark.parametrize("i", range(len(TABLE_DOMAINS)))
def test_speed_table_bytes(i, t_max, tmp_path):
    out = tmp_path / "speeds.csv"
    assert run_cli(["speeds", "--domain", json.dumps(TABLE_DOMAINS[i]), "--t-max", t_max,
                    "--points", "512", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SPEEDS_DIGESTS[i][("1e8", "1e12").index(t_max)]


#: sha256 of `hypspeed fit` JSON and `hypspeed plot` SVG on 512-point tables
#: of some tables domains, recorded before the speed table became columns:
#: (domain index, series, basis) and (domain index, columns)
FIT_DIGESTS = {
    (0, "v", "t"): "1aabf1ec2f95349aeb29c6498e1796f57d69a19edf01f9e3e05b643d837ec7f6",
    (3, "v", "log_t"): "d4081abf1a601dd10c82fa97368caa19a47703016f4c879c4f65dab51d23ea0f",
    (3, "v_T", "log_t"): "09f5cfea8fefe49466f6eba4af698147a6d2d9cd5a849d60d4485e2d34555101",
    (4, "v", "log_t"): "3f07abfa6b65defe6a799e1373d6ebce093701f5d8d2202169abb4538da38156",
    (5, "v_o", "log_t"): "9797941c928eb4a0a22dacfeaada42e8f7ec17870bef85519cb45a682595525b",
    (8, "v_o", "t"): "1c7e3fe1c25be1160b14cd1c6ade7203b2c0551ba73070fd4b5ebe84bdc07740",
}
PLOT_DIGESTS = {
    (0, "v,v_o,v_T"): "8b2a9a4d5e60bd5aa54d4b5e88ef45103f491eec541b04de130ba1a30e686d8f",
    (3, "log_rho,theta"): "665861b5759028a8653654f1b8e0b0ee28efd00a0f989e36e11c9e0b5aec7cb3",
    (4, "v,v_o,v_T"): "9105325a9b4b256da28ad9e31b7a3867f308eed3e4731a1c884cf4dd22a679dd",
    (5, "log_rho,theta"): "9d8665bb1dd175fbf0be7d8940917a713647e918d3b8616584c66bb3de8393c6",
    (5, "v,v_o,v_T"): "b0c6b82a927550e8221ab7302161fe6c70a4308ad15dbfcb40f1c622c2da1827",
}


@pytest.mark.parametrize("i,series,basis", sorted(FIT_DIGESTS))
def test_fit_bytes(i, series, basis, tmp_path):
    out = tmp_path / "fit.json"
    assert run_cli(["fit", "--domain", json.dumps(TABLE_DOMAINS[i]), "--series", series,
                    "--basis", basis, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIT_DIGESTS[i, series, basis]


@pytest.mark.parametrize("i,columns", sorted(PLOT_DIGESTS))
def test_plot_bytes(i, columns, tmp_path):
    out = tmp_path / "chart.svg"
    assert run_cli(["plot", "--domain", json.dumps(TABLE_DOMAINS[i]), "--columns", columns,
                    "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLOT_DIGESTS[i, columns]


# columns of every length around the writer's 1024-row chunks, with the
# cells whose `%.17g` text is least regular, which take the `%` path
_CELLS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072e-310, 1e308, -1e308, math.nan, math.inf, -math.inf])
#: the doubles nearest the powers of ten 1e-4..1e16 and of two 2^-13..2^56,
#: with their +-1-ulp neighbours, inside the array path's window
_EDGES = sorted({y for x in [*(float(f"1e{e}") for e in range(-4, 17)),
                             *(2.0 ** e for e in range(-13, 57))]
                 for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
                 if 1e-4 <= y < 1e17})
#: cells that take the array path: +-0.0 and finite 1e-4 <= |x| < 1e17
_FIXED = (st.floats(1e-4, 1e17, exclude_max=True) | st.floats(-1e17, -1e-4, exclude_min=True)
          | st.sampled_from([0.0, -0.0, *_EDGES, *(-x for x in _EDGES)]))
#: cells just outside that window, one of which sends its chunk to `%`
_UNCOVERED = [math.nextafter(1e-4, 0.0), -1e17, 1e17, 1e300, 5e-324, math.nan, -math.inf]


def _tables(cells):
    return st.sampled_from([0, 1, 1023, 1024, 1025, 5000]).flatmap(
        lambda n: arrays(np.float64, (len(CSV_COLUMNS), n), elements=cells))


@st.composite
def _one_uncovered(draw):
    columns = draw(_tables(_FIXED))
    if columns.size:
        columns.flat[draw(st.integers(0, columns.size - 1))] = draw(st.sampled_from(_UNCOVERED))
    return columns


def _rows_by_percent(columns):
    rows = ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % row
            for row in zip(*(c.tolist() for c in columns))]
    return "\n".join([",".join(CSV_COLUMNS)] + rows) + "\n"


@settings(max_examples=90, deadline=None)
@given(_tables(_CELLS) | _tables(_FIXED) | _one_uncovered())
def test_chunked_csv_matches_rows(columns):
    assert _csv(CSV_COLUMNS, columns) == _rows_by_percent(columns)


def test_fixed_cells_match_percent_g():
    # exact round-half-even ties at the 17th digit, (2^52 + odd)/4 and
    # (2^52 + odd)/8, the quarters (2^53 - odd)/8, and the powers of ten and
    # of two with their neighbours, of both signs, all on the array path
    odd = np.arange(1.0, 2.0 ** 15, 2.0)
    cells = np.concatenate([(2.0 ** 52 + odd) / 4, (2.0 ** 52 + odd) / 8,
                            (2.0 ** 53 - odd) / 8, _EDGES, [0.0]])
    cells = np.concatenate([cells, -cells, np.ones(-2 * cells.size % len(CSV_COLUMNS))])
    columns = cells.reshape(len(CSV_COLUMNS), -1)
    for lo in range(0, columns.shape[1], _CSV_CHUNK_ROWS):
        assert _fixed_cells(columns[:, lo:lo + _CSV_CHUNK_ROWS].T.copy()) is not None
    assert _csv(CSV_COLUMNS, columns) == _rows_by_percent(columns)
    # one cell outside the window sends its chunk to `%`, with the same bytes
    for x in _UNCOVERED:
        block = columns[:, :_CSV_CHUNK_ROWS].T.copy()
        block[7, 3] = x
        assert _fixed_cells(block) is None
        assert _csv(CSV_COLUMNS, block.T) == _rows_by_percent(block.T)


class TestVerify:
    def test_passing_suite_exit_0(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", "split", "--seed", "42", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0 and report["suite"] == "split"

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPSPEED_SEED", "99")
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--suite", "contraction", "--samples", "50",
                        "-o", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 99

    def test_env_seed_read_at_each_call(self, tmp_path, monkeypatch):
        # the parser is built once per process; the seed is not part of it
        out = tmp_path / "report.json"
        for seed in ("7", "99", "7"):
            monkeypatch.setenv("HYPSPEED_SEED", seed)
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "contraction", "--samples", "50", "-o", str(out)])
            assert exc.value.code == 0
            assert json.loads(out.read_text())["seed"] == int(seed)
        assert parse_args(["verify", "--suite", "split", "--seed", "3"]).seed == 3

    @pytest.mark.parametrize("argv", [["verify", "--suite", "split"], ["verify", "--suite", "comb"]])
    def test_malformed_env_seed_exit_2(self, argv, monkeypatch, capsys):
        # verify without --seed is the one command that reads the variable
        monkeypatch.setenv("HYPSPEED_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", "error: invalid literal for int() with base 10: 'abc'\n")

    @pytest.mark.parametrize("argv", [
        ["speeds", "--domain", KOEBE, "--points", "4"],
        ["comb", "--abscissae", "1,2,3,4", "--steps", "3"],
        ["--help"],
        ["verify", "--suite", "contraction", "--samples", "50", "--seed", "3"],
    ])
    def test_malformed_env_seed_unread_exit_0(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("HYPSPEED_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    def test_one_sample_grid_suite_exit_2(self, capsys):
        # `--samples 1` ran the default 512-point grid
        assert run_cli(["verify", "--suite", "split", "--samples", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: suite split needs --samples 2 or more, got 1: "
            "its speed tables take a grid of that many times\n")

    def test_small_pythagoras_run_exit_0(self, tmp_path):
        # too few samples to attain the 0.05 gap is not a violation
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--suite", "pythagoras", "--samples", "20",
                        "--seed", "1", "-o", str(out)]) == 0

    def test_too_few_fit_samples_exit_2(self, capsys):
        assert run_cli(["verify", "--suite", "sector_asymptotics", "--samples", "64"]) == 2
        assert capsys.readouterr().err == (
            "error: suite sector_asymptotics needs --samples 77 or more, got 64: "
            "its fits take 20 grid times in [1e+06, 1e+08]\n")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_malformed_tolerance_exit_2(self, tol, capsys):
        # a NaN tolerance counted 73 comb margins as violations, -1 counted 65
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "comb", "--tol", tol])
        assert exc.value.code == 2
        assert "tolerance" in capsys.readouterr().err


class TestFit:
    def test_koebe_quarter(self, tmp_path):
        out = tmp_path / "fit.json"
        code = run_cli(["fit", "--domain", KOEBE, "--series", "v", "--basis", "log_t",
                        "--window", "1e6", "1e8", "-o", str(out)])
        assert code == 0
        fit = json.loads(out.read_text())
        assert fit["coefficient"] == pytest.approx(0.25, abs=0.02)


class TestComb:
    def test_artifacts(self, tmp_path):
        cjson, ccsv = tmp_path / "comb.json", tmp_path / "ratios.csv"
        code = run_cli(["comb", "--gauge", "log1p", "--abscissae", "linear",
                        "--steps", "4", "-o", str(cjson), "--ratios", str(ccsv)])
        assert code == 0
        construction = json.loads(cjson.read_text())
        assert len(construction["teeth"]) == 5 and len(construction["x"]) == 4
        rows = ccsv.read_text().strip().splitlines()
        assert rows[0] == "j,b,x,bound,gauge,ratio"
        assert len(rows) == 5

    def test_explicit_abscissae_match_linear(self, tmp_path):
        outs = []
        for abscissae in ("1,2,3,4", "linear"):
            cjson, ccsv = tmp_path / f"{abscissae}.json", tmp_path / f"{abscissae}.csv"
            assert run_cli(["comb", "--abscissae", abscissae, "--steps", "3",
                            "-o", str(cjson), "--ratios", str(ccsv)]) == 0
            outs.append((cjson.read_bytes(), ccsv.read_bytes()))
        assert outs[0] == outs[1]

    def test_explicit_abscissae_count_exit_2(self, capsys):
        assert run_cli(["comb", "--abscissae", "1,2", "--steps", "3"]) == 2
        assert "need 4 abscissae, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["geom:nan", "--steps", "2"], ["1,nan,3", "--steps", "2"], ["geom:1e300", "--steps", "2"],
        ["geom:2", "--steps", "1100"], ["geom:inf"]], ids=str)
    def test_non_finite_abscissae_exit_2(self, argv, capsys):
        assert run_cli(["comb", "--abscissae", *argv]) == 2
        assert capsys.readouterr().err == "error: abscissae must be finite\n"

    def test_pow_gauge(self, tmp_path):
        code = run_cli(["comb", "--gauge", "pow:0.5", "--steps", "2",
                        "-o", str(tmp_path / "c.json"), "--ratios", str(tmp_path / "r.csv")])
        assert code == 0


class TestPlot:
    def test_svg_emitted(self, tmp_path):
        out = tmp_path / "chart.svg"
        code = run_cli(["plot", "--domain", KOEBE, "--points", "32",
                        "--columns", "v,v_o", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["plot", "--domain", KOEBE, "--points", "16"]
        run_cli(argv + ["-o", str(a)])
        run_cli(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_column(self):
        assert run_cli(["plot", "--domain", KOEBE, "--points", "8",
                        "--columns", "bogus"]) == 2

    @pytest.mark.parametrize("columns", [",", "", " , ,"])
    def test_no_column(self, columns, capsys):
        # "min() arg is an empty sequence" before
        assert run_cli(["plot", "--domain", KOEBE, "--points", "8", "--columns", columns]) == 2
        assert capsys.readouterr().err == "error: --columns names no column to plot\n"


#: each subcommand's single-valued options, and the arguments it runs with
#: besides one of them given as `--opt=--`
_SINGLE_VALUED = {
    "speeds": (("--domain", "--t-min", "--t-max", "--points", "-o"),
               ["--domain", KOEBE, "--points", "4"]),
    "fit": (("--series", "--basis"), ["--domain", KOEBE]),
    "plot": (("--columns",), ["--domain", KOEBE, "--points", "8"]),
    "verify": (("--suite", "--samples", "--seed", "--tol", "-o"), ["--suite", "comb"]),
    "comb": (("--gauge", "--abscissae", "--steps", "-o", "--ratios"), []),
}


class TestConfig:
    def test_invariants(self):
        # a malformed grid exits 2, also before a comb domain could exit 3
        for domain in (KOEBE, COMB):
            for grid in (["--t-min", "2", "--t-max", "1"], ["--points", "1"]):
                with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
                    main(["speeds", "--domain", domain] + grid)
                assert exc.value.code == 2

    def test_main_exit_codes(self):
        with pytest.raises(SystemExit) as exc:
            main(["speeds", "--domain", COMB, "--points", "4"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("command, option", [
        pytest.param(cmd, opt, id=f"{opt}=--" if cmd == "speeds" else f"{cmd} {opt}=--")
        for cmd, (opts, _) in _SINGLE_VALUED.items() for opt in opts])
    def test_double_dash_value_is_malformed_input(self, command, option):
        # Python 3.11's argparse reads `--opt=--` as an empty list
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as exc:
            main([command, *_SINGLE_VALUED[command][1], f"{option}=--"])
        assert exc.value.code == 2
        assert out.getvalue() == ""


# Fuzzed `speeds` invocations: domain JSON of every type, with well-formed
# and malformed fields, or arbitrary text; grid options as numbers or junk.
_VALUE = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**6, 10**6)
          | st.text(max_size=3) | st.none())
_POINT = st.lists(_VALUE, max_size=3)
_DOMAIN = st.one_of(
    st.fixed_dictionaries({"type": st.just("halfplane"), "p": _POINT}),
    st.fixed_dictionaries({"type": st.just("strip"), "r": _VALUE}),
    st.fixed_dictionaries({"type": st.just("sector"), "p": _POINT,
                           "alpha": _VALUE, "beta": _VALUE}),
    st.fixed_dictionaries({"type": st.just("koebe"), "p": _POINT}),
    st.fixed_dictionaries({"type": st.just("comb"), "teeth": st.lists(_POINT, max_size=3)}),
    st.dictionaries(st.text(max_size=5), _VALUE, max_size=3),
    _VALUE,
).map(json.dumps) | st.text(max_size=20)
_NUMBER = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
           | st.integers(-5, 10**9).map(str) | st.text(max_size=4))
# at most three digits, so no table is longer than 999 rows
_POINTS = st.integers(-2, 12).map(str) | st.text(alphabet="0123456789-.e", max_size=3)
_OPTIONS = st.fixed_dictionaries(
    {}, optional={"--t-min": _NUMBER, "--t-max": _NUMBER, "--points": _POINTS})


class TestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_DOMAIN, _OPTIONS)
    @example('{"type": "halfplane", "p": [9007199254740992.0, 0]}', {})
    def test_speeds_exit_codes(self, domain, options):
        # `--opt=value` keeps a value such as "-1" from reading as an option
        argv = ["speeds", "--domain", domain] + [f"{k}={v}" for k, v in options.items()]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code in (0, 2, 3), argv
