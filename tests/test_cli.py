import subprocess
import sys

import pytest

from owcrelay import cli
from owcrelay.mobility import RwpDistribution
from owcrelay.quadrature import QuadratureError
from owcrelay.scenario import default_scenario, load_scenario, save_scenario

from conftest import make_single_link_scenario


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "owcrelay.cli", *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def single_link_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "single.yaml"
    save_scenario(make_single_link_scenario(), path)
    return str(path)


class TestSimulate:
    def test_csv_shape_and_exit_code(self, single_link_file):
        res = run_cli(
            "simulate", "--scenario", single_link_file,
            "--samples", "4096", "--seed", "3",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "user_id,mode,p_out,stderr,n_samples,threshold_db,seed"
        assert len(lines) == 3  # one user, direct + coop
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            assert fields[0] == "u1"
            assert fields[4] == "4096"
            assert fields[6] == "3"

    def test_out_file_matches_stdout(self, single_link_file, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli(
            "simulate", "--scenario", single_link_file,
            "--samples", "4096", "--seed", "3", "--out", str(out),
        )
        assert res.returncode == 0
        assert out.read_text() == res.stdout

    def test_exact_method(self, single_link_file):
        res = run_cli("simulate", "--scenario", single_link_file, "--method", "exact")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        direct = dict(zip(lines[0].split(","), lines[1].split(",")))
        coop = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert direct["mode"] == "direct" and coop["mode"] == "coop"
        assert direct["p_out"] == coop["p_out"]  # no relays in this scenario
        assert 0.005 < float(direct["p_out"]) < 0.008

    @pytest.mark.parametrize("mode", ["direct", "coop"])
    @pytest.mark.parametrize("method", ["mc", "exact"])
    def test_mode_filter(self, method, mode):
        # --mode only drops the other mode's lines of the unfiltered output
        argv = ("simulate", "--method", method, "--samples", "4096", "--seed", "1")
        header, *rows = run_cli(*argv).stdout.splitlines(keepends=True)
        res = run_cli(*argv, "--mode", mode)
        assert res.returncode == 0
        assert res.stdout == header + "".join(r for r in rows if r.split(",")[1] == mode)

    def test_bad_sample_count_fails_cleanly(self, single_link_file):
        res = run_cli(
            "simulate", "--scenario", single_link_file, "--samples", "0"
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error:")


class TestBlockage:
    def test_quadrature_rows(self, single_link_file):
        res = run_cli("blockage", "--scenario", single_link_file)
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "link_id,tx,rx,probability,method"
        assert len(lines) == 2
        link_id, tx, rx, p, method = lines[1].split(",")
        assert (tx, rx, method) == ("ap1", "u1", "quadrature")
        assert 0.005 < float(p) < 0.008

    def test_mc_rows_appended(self, single_link_file):
        res = run_cli("blockage", "--scenario", single_link_file, "--mc", "20000")
        lines = res.stdout.splitlines()
        assert len(lines) == 3
        quad = float(lines[1].split(",")[3])
        mc = float(lines[2].split(",")[3])
        assert lines[2].endswith(",mc")
        assert abs(mc - quad) < 3.0 * (quad / 20000) ** 0.5


class TestChannel:
    def test_gain_matrix_row(self, single_link_file):
        res = run_cli("channel", "--scenario", single_link_file)
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "tx_id,rx_id,h,los_gain,reflected_gain"
        # 2 m vertical beam: full capture, nothing left to reflect
        assert lines[1] == "ap1,u1,1,1,0"

    def test_cir_dump(self, single_link_file):
        res = run_cli(
            "channel", "--scenario", single_link_file,
            "--tx", "ap1", "--rx", "u1", "--cir",
        )
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["bin_index,time_s,gain", "667,6.67e-09,1"]

    def test_filters(self):
        res = run_cli("channel", "--rx", "u5")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) > 1
        assert all(line.split(",")[1] == "u5" for line in lines[1:])

    def test_no_match_exits_two(self, single_link_file):
        res = run_cli("channel", "--scenario", single_link_file, "--rx", "nobody")
        assert res.returncode == 2
        assert "no link matches" in res.stderr

    def test_cir_needs_single_link(self):
        res = run_cli("channel", "--cir")
        assert res.returncode == 2
        assert "single link" in res.stderr


class TestPdf:
    def test_summary(self):
        res = run_cli("pdf")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "quantity,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert rows["peak_density"] == "0.0703125"
        assert rows["variance_x"] == "0.8"
        assert rows["variance_y"] == "3.2"

    def test_summary_with_samples(self):
        res = run_cli("pdf", "--samples", "50000", "--seed", "2")
        rows = dict(line.split(",") for line in res.stdout.splitlines()[1:])
        assert float(rows["sample_var_x"]) == pytest.approx(0.8, rel=0.05)
        assert float(rows["sample_var_y"]) == pytest.approx(3.2, rel=0.05)

    def test_grid_matches_library_density(self):
        res = run_cli("pdf", "--grid", "2")
        lines = res.stdout.splitlines()
        assert lines[0] == "x,y,density"
        assert len(lines) == 5
        dist = RwpDistribution(4.0, 8.0)
        for line in lines[1:]:
            x, y, d = (float(v) for v in line.split(","))
            assert d == pytest.approx(dist.pdf((x, y))[0], rel=1e-9)
        xs = sorted({float(line.split(",")[0]) for line in lines[1:]})
        assert xs == [1.0, 3.0]


class TestInit:
    def test_written_file_reloads_as_default(self, tmp_path):
        out = tmp_path / "scenario.yaml"
        res = run_cli("init", "--out", str(out))
        assert res.returncode == 0
        assert str(out) in res.stdout
        assert load_scenario(out) == default_scenario()


class TestErrors:
    def test_unknown_key_in_scenario(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("beams: {}\n")
        res = run_cli("simulate", "--scenario", str(bad), "--samples", "32")
        assert res.returncode == 1
        assert res.stderr.startswith("error: unknown key: beams")

    def test_missing_scenario_file(self):
        res = run_cli("blockage", "--scenario", "/nonexistent/path.yaml")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")

    def test_quadrature_failure_is_clean_error(self, monkeypatch, capsys):
        # a real trigger (a 0.1 mm walker) exhausts the 6M-cell budget and
        # peaks near 900 MB, so the failure is injected where the CLI meets it
        def stalled(budget):
            raise QuadratureError("cell budget 6000000 exhausted before convergence", 0.0)

        monkeypatch.setattr(cli, "ensure_marginals", stalled)
        assert cli.main(["blockage"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell budget")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pdf", "--grid", "-1"),
            ("pdf", "--samples", "-1"),
            ("blockage", "--mc", "-1"),
            ("simulate", "--workers", "-1"),
        ],
        ids=["pdf-grid", "pdf-samples", "blockage-mc", "simulate-workers"],
    )
    def test_negative_counts_rejected_at_parse_time(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "must be non-negative, got -1" in res.stderr

    def test_unknown_mode_rejected_at_parse_time(self):
        res = run_cli("simulate", "--mode", "relay")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "argument --mode: invalid choice" in res.stderr
