import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypspeed.cli import CliConfig, main, parse_args, run

KOEBE = '{"type":"koebe","p":[0,0]}'
COMB = '{"type":"comb","teeth":[[1,1],[2,3]]}'
STRIP = '{"type":"strip","r":1.5707963267948966}'
HALFPLANE = '{"type":"halfplane","p":[0,0]}'
SECTOR_FLAT = '{"type":"sector","p":[0,0],"alpha":3.141592653589793,"beta":0}'


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
        ["--domain", STRIP, "--t-max", "1e307"],
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

    def test_small_pythagoras_run_exit_0(self, tmp_path):
        # too few samples to attain the 0.05 gap is not a violation
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--suite", "pythagoras", "--samples", "20",
                        "--seed", "1", "-o", str(out)]) == 0


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


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CliConfig(subcommand="speeds", t_min=2.0, t_max=1.0)
        with pytest.raises(ValueError):
            CliConfig(subcommand="speeds", points=1)

    def test_main_exit_codes(self):
        with pytest.raises(SystemExit) as exc:
            main(["speeds", "--domain", COMB, "--points", "4"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("option", ["--points=--", "--t-min=--", "--t-max=--"])
    def test_double_dash_value_is_malformed_input(self, option):
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(["speeds", "--domain", '{"type": "koebe", "p": [0, 0]}', option])
        assert exc.value.code == 2


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
    def test_speeds_exit_codes(self, domain, options):
        # `--opt=value` keeps a value such as "-1" from reading as an option
        argv = ["speeds", "--domain", domain] + [f"{k}={v}" for k, v in options.items()]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code in (0, 2, 3), argv
