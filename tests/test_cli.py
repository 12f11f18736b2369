import csv
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from spdc_stats import SourceLaw, g2_from_counts
from spdc_stats.cli import main
from spdc_stats.photon_statistics import click_moment
from spdc_stats.sweepio import bundled_path
from checks import half_ulp, load_bundled_csv, write_sweep

TABLE2_TOLERANCES = {
    "g2_heralded": 0.01,
    "g2_signal_idler": 0.01,
    "g3_signal_idler": 0.01,
    "g2_predicted": 0.15,
}


@pytest.fixture(scope="module")
def sweep_path(tmp_path_factory):
    target = tmp_path_factory.mktemp("data") / "sweep.csv"
    with resources.as_file(bundled_path("table1_measured.csv")) as src:
        shutil.copy(src, target)
    return target


@pytest.fixture(scope="module")
def invert_out(tmp_path_factory, sweep_path):
    out = tmp_path_factory.mktemp("invert")
    code = main(["invert", str(sweep_path), "--out", str(out)])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_cell(got: str, expected: str, rel: float):
    if expected == "-":
        assert got == "-"
        return
    ref = float(expected)
    tol = max(rel * abs(ref), half_ulp(expected))
    assert abs(float(got) - ref) <= tol, (got, expected, rel)


class TestInvert:
    def test_golden_table(self, invert_out):
        got = read_csv(invert_out / "table1.csv")
        expected = load_bundled_csv("table1_expected.csv")
        assert len(got) == len(expected) == 16
        for g, e in zip(got, expected):
            assert float(g["power_mw"]) == float(e["power_mw"])
            assert g["status"] == "ok"
            for col in (
                "tau", "eta1", "eta2", "pair_rate", "one_pair_rate",
                "mean_pairs",
            ):
                assert_cell(g[col], e[col], 0.02)

    def test_json_mirror(self, invert_out):
        payload = json.loads((invert_out / "table1.json").read_text())
        assert payload["repetition_rate_hz"] == 76e6
        assert len(payload["rows"]) == 16
        assert all(r["status"] == "ok" for r in payload["rows"])
        assert all(r["residual"] <= 1e-9 for r in payload["rows"])

    def test_sweep_with_byte_order_mark(self, tmp_path, sweep_path, invert_out):
        # a spreadsheet may save the sweep with a UTF-8 byte-order mark
        sweep = tmp_path / "bom.csv"
        sweep.write_bytes(b"\xef\xbb\xbf" + sweep_path.read_bytes())
        assert main(["invert", str(sweep), "--out", str(tmp_path)]) == 0
        got = (tmp_path / "table1.csv").read_bytes()
        assert got == (invert_out / "table1.csv").read_bytes()

    def test_empty_sweep_is_fine(self, tmp_path):
        sweep = tmp_path / "empty.csv"
        sweep.write_text("power_mw,sc1,sc2,cc\n")
        code = main(["invert", str(sweep), "--out", str(tmp_path)])
        assert code == 0
        assert read_csv(tmp_path / "table1.csv") == []

    def test_poisoned_row_partial_failure(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "power_mw,sc1,sc2,cc\n"
            "10,223000,205000,45000\n"
            "20,447000,405000,460000\n"
            "30,657000,594000,136000\n"
        )
        code = main(["invert", str(sweep), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "20" in err and "inconsistent" in err
        rows = read_csv(tmp_path / "table1.csv")
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("failed:")
        assert rows[1]["tau"] == "-"
        assert rows[2]["status"] == "ok"

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("power,sc1,sc2,cc\n10,1,1,1\n", "header"),
            ("power_mw,sc1,sc2,cc\n10,2e5,1.9e5,oops\n", "line 2"),
            ("power_mw,sc1,sc2,cc\n20,2e5,1.9e5,4e4\n10,2e5,1.9e5,4e4\n",
             "increasing"),
            ("power_mw,sc1,sc2,cc,cc12,cc13,cc123\n"
             "10,2e5,1.9e5,4e4,2e4,-,77\n", "all present or all absent"),
            ("power_mw,sc1,sc2,cc\n10,2e5,-1.0,4e4\n", "non-negative"),
            ("", "line 1: missing header row"),
            ("power_mw,sc1,sc2,cc\n10,2e5,1.9e5\n",
             "line 2: expected 4 columns, got 3"),
            ("power_mw,sc1,sc2,cc,cc12,cc13,cc123\n"
             "10,2e5,1.9e5,4e4,2e4,1.8e4,-77\n",
             "line 2: split coincidence rates must be non-negative"),
        ],
    )
    def test_malformed_sweeps(self, tmp_path, capsys, body, fragment):
        sweep = tmp_path / "bad.csv"
        sweep.write_text(body)
        code = main(["invert", str(sweep), "--out", str(tmp_path)])
        assert code == 1
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("power_mw,sc1,sc2,cc\n10,2e5,1.9e5,4e4\nnan,2e5,1.9e5,4e4\n",
             "line 3: power_mw must be finite"),
            ("power_mw,sc1,sc2,cc\n10,2e5,1.9e5,inf\n",
             "line 2: cc must be finite"),
            ("power_mw,sc1,sc2,cc,cc12,cc13,cc123\n"
             "10,2e5,1.9e5,4e4,2e4,1.8e4,nan\n", "line 2: cc123 must be finite"),
        ],
    )
    def test_nonfinite_sweep_values(self, tmp_path, capsys, body, fragment):
        sweep = tmp_path / "bad.csv"
        sweep.write_text(body)
        code = main(["invert", str(sweep), "--out", str(tmp_path)])
        assert code == 1
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-1"])
    def test_bad_rep_rate_rejected(self, tmp_path, capsys, sweep_path, rate):
        code = main(["invert", str(sweep_path), "--rep-rate", rate,
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("spdc-stats: error: repetition rate")
        assert not (tmp_path / "table1.csv").exists()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["invert", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("power_mw,sc1,sc2,cc\n10,223000,205000,45000\n\n"
                         " , , , \n30,657000,594000,136000\n")
        assert main(["invert", str(sweep), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "table1.csv")
        assert [row["power_mw"] for row in rows] == ["10.0", "30.0"]


class TestCorrelations:
    def test_golden_table(self, invert_out, tmp_path):
        out = tmp_path / "table2.csv"
        code = main(
            ["correlations", str(invert_out / "table1.json"), "--out", str(out)]
        )
        assert code == 0
        got = read_csv(out)
        expected = load_bundled_csv("table2_expected.csv")
        assert len(got) == len(expected) == 16
        for g, e in zip(got, expected):
            assert float(g["power_mw"]) == float(e["power_mw"])
            for col, rel in TABLE2_TOLERANCES.items():
                assert_cell(g[col], e[col], rel)
            assert abs(float(g["g2_unheralded"]) - 2.0) <= 1e-8
            assert abs(float(g["g3_unheralded"]) - 6.0) <= 1e-8
            # without measured splitter counts the first column is blank
            assert g["g2_measured"] == "-"

    def test_table_with_byte_order_mark(self, invert_out, tmp_path):
        # an editor may save table1.json back with a UTF-8 byte-order mark
        table = tmp_path / "bom.json"
        table.write_bytes(b"\xef\xbb\xbf" + (invert_out / "table1.json").read_bytes())
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert main(["correlations", str(invert_out / "table1.json"),
                     "--out", str(plain)]) == 0
        assert main(["correlations", str(table), "--out", str(bom)]) == 0
        assert bom.read_bytes() == plain.read_bytes()

    def test_measured_counts_appear(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "power_mw,sc1,sc2,cc,cc12,cc13,cc123\n"
            "10,223000,205000,45000,22000,18400,77\n"
        )
        assert main(["invert", str(sweep), "--out", str(tmp_path)]) == 0
        out = tmp_path / "table2.csv"
        assert main(
            ["correlations", str(tmp_path / "table1.json"), "--out", str(out)]
        ) == 0
        row = read_csv(out)[0]
        assert float(row["g2_measured"]) == pytest.approx(
            g2_from_counts(223000, 22000, 18400, 77), rel=1e-12
        )

    def test_divergent_columns_render_as_dashes(self, tmp_path):
        table1 = tmp_path / "table1.json"
        table1.write_text(json.dumps({
            "repetition_rate_hz": 76e6,
            "rows": [{
                "status": "ok", "power_mw": 1.0, "sc1": 0.0, "sc2": 0.0,
                "cc": 0.0, "cc12": None, "cc13": None, "cc123": None,
                "tau": 0.0, "eta1": 0.2, "eta2": 0.2, "x": 0.0,
                "pair_rate": 0.0, "one_pair_rate": 0.0, "mean_pairs": 0.0,
                "residual": 0.0, "iterations": 0,
            }],
        }))
        out = tmp_path / "table2.csv"
        assert main(["correlations", str(table1), "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["g2_signal_idler"] == "-"
        assert row["g3_signal_idler"] == "-"
        # a column with a finite limit at x = 0 reports it
        assert float(row["g3_unheralded"]) == 6.0
        assert float(row["g2_unheralded"]) == 2.0
        assert float(row["g2_heralded"]) == 0.0
        assert row["status"] == "ok"

    @pytest.mark.parametrize(
        "rows,fragment",
        [
            ("abc", "rows must be a list"),
            ([1], "row 1: not an object"),
            ([{"sc1": "1e5"}], "sc1 must be a number"),
            ([{"eta2": "a"}], "eta2 must be a number"),
            ([{}, {}, {}, {"eta1": float("nan")}],
             "row 4: eta1 must lie in [0, 1], got nan"),
            ([{}, {}, {}, {"x": 1.5}],
             "row 4: emission parameter x must lie in [0, 1), got 1.5"),
            ([{}, {}, {}, {"eta2": -0.2}],
             "row 4: eta2 must lie in [0, 1], got -0.2"),
            # a dict sets top-level keys, over one good row
            ({"repetition_rate_hz": float("nan")},
             "table: repetition_rate_hz must be positive and finite, got nan"),
            ({"repetition_rate_hz": True},
             "table: repetition_rate_hz must be a number, got True"),
            ({"repetition_rate_hz": -5},
             "table: repetition_rate_hz must be positive and finite, got -5"),
            ([{"status": 0}], "row 1: status must be a string, got 0"),
        ],
        ids=["rows-string", "row-number", "sc1-string", "eta2-string",
             "eta1-nan", "x-above-1", "eta2-negative", "rate-nan", "rate-true",
             "rate-negative", "status-number"],
    )
    def test_malformed_table1_json(self, tmp_path, capsys, rows, fragment):
        good = {
            "status": "ok", "power_mw": 10.0, "sc1": 2.23e5, "sc2": 2.05e5,
            "cc": 4.5e4, "cc12": None, "cc13": None, "cc123": None,
            "tau": 1e-3, "eta1": 0.2, "eta2": 0.2, "x": 0.01,
            "pair_rate": 7.6e5, "one_pair_rate": 7.5e5, "mean_pairs": 0.01,
            "residual": 0.0, "iterations": 0,
        }
        top = {"repetition_rate_hz": 76e6}
        if isinstance(rows, dict):
            top, rows = {**top, **rows}, [{}]
        if isinstance(rows, list):
            rows = [{**good, **r} if isinstance(r, dict) else r for r in rows]
        table1 = tmp_path / "table1.json"
        table1.write_text(json.dumps({**top, "rows": rows}))
        code = main(["correlations", str(table1),
                     "--out", str(tmp_path / "table2.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("spdc-stats: error:")
        assert fragment in err[0]

    def test_rates_near_underflow(self, tmp_path):
        # this row inverts to x = 9.57e-80, where g2's squared pair rate
        # underflows unless the click-set cells are rescaled first
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("power_mw,sc1,sc2,cc\n10,1.6e-72,1.5e-72,3.3e-73\n")
        assert main(["invert", str(sweep), "--out", str(tmp_path)]) == 0
        out = tmp_path / "table2.csv"
        assert main(["correlations", str(tmp_path / "table1.json"),
                     "--out", str(out)]) == 0
        g2 = float(read_csv(out)[0]["g2_predicted"])
        assert 0.0 < g2 < 1e-78

    def test_failed_rows_carry_over(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(
            "power_mw,sc1,sc2,cc\n"
            "10,223000,205000,45000\n"
            "20,447000,405000,460000\n"
        )
        assert main(["invert", str(sweep), "--out", str(tmp_path)]) == 2
        out = tmp_path / "table2.csv"
        code = main(
            ["correlations", str(tmp_path / "table1.json"), "--out", str(out)]
        )
        assert code == 2
        rows = read_csv(out)
        assert rows[0]["status"] == "ok"
        # the status of table1.csv, carried over with one prefix
        status = rows[1]["status"]
        assert status == read_csv(tmp_path / "table1.csv")[1]["status"]
        assert status.startswith("failed: ") and status.count("failed:") == 1
        assert rows[1]["g2_heralded"] == "-"

    def test_eta_scale_flag_changes_prediction(self, invert_out, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        table1 = str(invert_out / "table1.json")
        assert main(["correlations", table1, "--out", str(a)]) == 0
        assert main(
            ["correlations", table1, "--eta3-scale", "1.0", "--out", str(b)]
        ) == 0
        ga = float(read_csv(a)[0]["g2_predicted"])
        gb = float(read_csv(b)[0]["g2_predicted"])
        assert ga != gb


    def test_eta2_scale_flag_changes_prediction(self, invert_out, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        table1 = str(invert_out / "table1.json")
        assert main(["correlations", table1, "--out", str(a)]) == 0
        assert main(
            ["correlations", table1, "--eta2-scale", "0.5", "--out", str(b)]
        ) == 0
        ga = float(read_csv(a)[0]["g2_predicted"])
        gb = float(read_csv(b)[0]["g2_predicted"])
        assert ga != gb

    def test_underflowing_prediction_left_empty(self, invert_out, tmp_path):
        # branch efficiencies below ~1e-162: g2's squared pair rate
        # underflows, so the prediction is undefined and the run goes on
        out = tmp_path / "t2.csv"
        assert main([
            "correlations", str(invert_out / "table1.json"),
            "--eta2-scale", "1e-170", "--eta3-scale", "1e-170",
            "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert [r["g2_predicted"] for r in rows] == ["-"] * len(rows)
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("scale", ["-0.5", "nan"])
    def test_bad_eta2_scale_rejected(self, invert_out, tmp_path, capsys, scale):
        code = main([
            "correlations", str(invert_out / "table1.json"),
            "--eta2-scale", scale, "--out", str(tmp_path / "t2.csv"),
        ])
        assert code == 1
        assert "eta2 must lie in [0, 1]" in capsys.readouterr().err


class TestSaturation:
    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["saturation", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 360
        kinds = {r["source_kind"] for r in rows}
        etas = {r["eta"] for r in rows}
        assert kinds == {"coherent", "thermal"}
        assert len(etas) == 3

    def test_values_match_model(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["saturation", "--eta", "0.8", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 120
        for r in rows[::17]:
            law = SourceLaw.of_mean(r["source_kind"], float(r["mean"]))
            want = click_moment(law, 0.8, 0)
            assert float(r["detected"]) == pytest.approx(want, rel=1e-12)

    def test_literal_variant(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main([
            "saturation", "--eta", "0.5", "--variant", "literal",
            "--out", str(out),
        ]) == 0
        row = read_csv(out)[0]
        law = SourceLaw.of_mean(row["source_kind"], float(row["mean"]))
        want = click_moment(law, 0.5, 1)
        assert float(row["detected"]) == pytest.approx(want, rel=1e-12)


class TestSimulate:
    BASE = [
        "simulate", "--mode", "two_arm", "--x", "0.0135",
        "--eta1", "0.215", "--eta2", "0.198", "--pulses", "1000000",
        "--seed", "42",
    ]

    def test_repeat_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.BASE + ["--out", str(a)]) == 0
        assert main(self.BASE + ["--threads", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_payload_contents(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(self.BASE + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "two_arm"
        assert payload["counts"]["pulses"] == 1000000
        assert payload["sigma_limit"] == 5.0
        assert payload["max_sigma"] < 5.0
        for name in ("clicks1", "clicks2", "pair12"):
            entry = payload["comparison"][name]
            assert abs(entry["mc"] - entry["analytic"]) <= 5 * entry["stderr"]

    def test_config_chain_is_an_object(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(self.BASE + ["--out", str(out)]) == 0
        chain = json.loads(out.read_text())["config"]["chain"]
        assert chain == {"eta1": 0.215, "eta2": 0.198, "eta3": None}

    def test_underflowing_g2_left_out(self, tmp_path):
        # branch efficiencies below ~1e-162: g2's squared pair rate
        # underflows, so the run is judged on its tallies alone
        out = tmp_path / "sim.json"
        assert main([
            "simulate", "--mode", "heralded_split", "--x", "0.5",
            "--eta1", "0.9", "--eta2", "1e-170", "--eta3", "1e-170",
            "--pulses", "100000", "--seed", "1", "--out", str(out),
        ]) == 0
        comparison = json.loads(out.read_text())["comparison"]
        assert "g2" not in comparison
        assert "clicks1" in comparison

    def test_zero_pulses_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--mode", "two_arm", "--x", "0.1", "--eta1", "0.2",
            "--eta2", "0.2", "--pulses", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "pulses" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_nonpositive_threads_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "x.json"
        code = main(self.BASE + ["--threads", threads, "--out", str(out)])
        assert code == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_ignored_options_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main([
            "simulate", "--mode", "two_arm", "--x", "0.1", "--eta1", "0.2",
            "--eta2", "0.2", "--eta3", "0.9", "--source-kind", "coherent",
            "--mean", "5", "--pulses", "10000", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["spdc-stats: error: mode two_arm does not use "
                       "source_kind, mean, chain.eta3"]
        assert not out.exists()

    def test_missing_detector_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--mode", "two_arm", "--x", "0.1", "--eta1", "0.2",
            "--pulses", "1000", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "eta2" in capsys.readouterr().err

    @pytest.mark.parametrize("mean", ["nan", "inf"])
    def test_nonfinite_mean_rejected(self, tmp_path, capsys, mean):
        code = main([
            "simulate", "--mode", "saturation", "--source-kind", "coherent",
            "--mean", mean, "--eta1", "0.5", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "spdc-stats: error:" in err and "mean" in err

    def test_missing_mean_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--mode", "saturation", "--source-kind", "thermal",
            "--eta1", "0.5", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "spdc-stats: error:" in err and "mean" in err
        assert "Traceback" not in err

    def test_thermal_mean_past_two53_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main([
            "simulate", "--mode", "saturation", "--source-kind", "thermal",
            "--mean", "1e16", "--eta1", "0.5", "--pulses", "10",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["spdc-stats: error: thermal draws at x = 1.0 "
                       "(a mean of 2**53 or more) have no bound"]
        assert not out.exists()

    def test_split_at_tiny_x(self, tmp_path):
        # the three-fold rate at x = 1e-9 is ~6e-21 per pulse; it must come
        # out positive, not as a rounding residue below zero
        out = tmp_path / "tiny.json"
        code = main([
            "simulate", "--mode", "heralded_split", "--x", "1e-9",
            "--eta1", "0.215", "--eta2", "0.198", "--eta3", "0.163",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["comparison"]["triple123"]["analytic"] > 0

    def test_split_at_x_1e_200(self, tmp_path):
        # the expected g2 reads cells far below the square root of the
        # smallest float
        out = tmp_path / "tiny.json"
        code = main([
            "simulate", "--mode", "heralded_split", "--x", "1e-200",
            "--eta1", ".2", "--eta2", ".2", "--eta3", ".2", "--pulses", "1000",
            "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("eta1,eta23", [("0", "0.2"), ("0.2", "0")])
    def test_split_with_dark_detectors(self, tmp_path, eta1, eta23):
        # no pair coincidences can occur, so there is no g2 to compare
        out = tmp_path / "dark.json"
        code = main([
            "simulate", "--mode", "heralded_split", "--x", "0.1",
            "--eta1", eta1, "--eta2", eta23, "--eta3", eta23,
            "--pulses", "10000", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert "g2" not in json.loads(out.read_text())["comparison"]

    def test_five_sigma_gate(self, tmp_path, monkeypatch, capsys):
        import spdc_stats.expectations as expectations

        def fake_compare(config, counts):
            return {"clicks1": {
                "mc": 0.5, "analytic": 0.4, "stderr": 0.001, "sigma": 100.0,
            }}

        monkeypatch.setattr(expectations, "compare_with_analytic", fake_compare)
        code = main(self.BASE[:-2] + ["--pulses", "10000",
                                      "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "5" in capsys.readouterr().err


class TestSweepRoundTrip:
    def test_plain_records(self, tmp_path, bundled_records):
        from spdc_stats.sweepio import read_sweep

        path = tmp_path / "sweep.csv"
        write_sweep(bundled_records, path)
        assert read_sweep(path) == bundled_records

    def test_split_records(self, tmp_path):
        from spdc_stats import CountRecord
        from spdc_stats.sweepio import read_sweep

        records = [
            CountRecord(power_mw=10, sc1=2.23e5, sc2=2.05e5, cc=4.5e4,
                        cc12=2.2e4, cc13=1.84e4, cc123=77.0),
            CountRecord(power_mw=20, sc1=4.47e5, sc2=4.05e5, cc=9.2e4),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep(records, path)
        assert read_sweep(path) == records

    def test_table1_json_round_trip(self, tmp_path, inverted_rows):
        from spdc_stats import (
            CountRecord, FailedRow, read_table1_json, write_table1_json,
        )

        failed = FailedRow(
            record=CountRecord(power_mw=500, sc1=1e6, sc2=1e6, cc=2e6),
            error="coincidence rate exceeds a singles rate",
        )
        table = inverted_rows + [failed]
        path = tmp_path / "table1.json"
        write_table1_json(table, 76e6, path)
        f, rows = read_table1_json(path)
        assert f == 76e6
        assert rows == table
        # tables written while the inversion was iterative carry a solver
        # key, and older tables an iterations key
        payload = json.loads(path.read_text())
        for row in payload["rows"]:
            row["solver"], row["iterations"] = "newton", 0
        path.write_text(json.dumps(payload))
        assert read_table1_json(path) == (76e6, table)


class TestEntryPoint:
    def test_console_script_help(self):
        exe = shutil.which("spdc-stats")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "invert" in proc.stdout

    def test_usage_error_exits_one_in_process(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        exe = shutil.which("spdc-stats")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "bogus"], capture_output=True, text=True
        )
        assert proc.returncode == 1


def test_import_path_has_no_scipy():
    # importing scipy.stats alone costs about a second per CLI run
    import spdc_stats

    src = Path(spdc_stats.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, spdc_stats, spdc_stats.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_analytic_commands_do_not_load_numpy(tmp_path, sweep_path):
    # numpy's import is most of a fresh CLI run's wall time, and only the
    # Monte Carlo needs it
    import spdc_stats

    src = Path(spdc_stats.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"""
import contextlib, io, json, sys
import spdc_stats
from spdc_stats import cli
after_import = "numpy" in sys.modules
out = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["invert", {str(sweep_path)!r}, "--out", out]),
        cli.main(["correlations", out + "/table1.json",
                  "--out", out + "/table2.csv"]),
        cli.main(["saturation", "--out", out + "/curves.csv"]),
    ]
after_commands = "numpy" in sys.modules
from spdc_stats import simulate
print(json.dumps({{
    "after_import": after_import,
    "codes": codes,
    "after_commands": after_commands,
    "lazy": [spdc_stats.SimConfig.__module__, simulate.__module__],
    "missing_from_dir": sorted(set(spdc_stats.__all__) - set(dir(spdc_stats))),
}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["after_import"] is False
    assert result["codes"] == [0, 0, 0]
    assert result["after_commands"] is False
    assert result["lazy"] == ["spdc_stats.montecarlo"] * 2
    assert result["missing_from_dir"] == []
