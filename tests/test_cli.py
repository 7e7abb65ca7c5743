import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from owcrelay import cli
from owcrelay.mobility import QuadratureError, pdf_xy
from owcrelay.scenario import default_scenario, load_scenario, save_scenario

from conftest import MALFORMED_YAML, make_single_link_scenario


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

    def test_scenario_seed_above_2_53_matches_flag(self, tmp_path):
        doc = tmp_path / "seed.yaml"
        doc.write_text("sampler: {seed: 9007199254740993}\n")
        from_file = run_cli("simulate", "--samples", "4096", "--scenario", str(doc))
        from_flag = run_cli("simulate", "--samples", "4096", "--seed", "9007199254740993")
        assert from_file.returncode == 0
        assert from_file.stdout == from_flag.stdout

    def test_exact_default_room_stdout_digest(self):
        # every exact row rests on the blocking-region marginals, so a change
        # to any region shows here
        res = run_cli("simulate", "--method", "exact")
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == "a6eb99607c150ca97fe859bcf0bbf6fef1fac407219629233a2eb69a7d9e2082"

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

    def test_no_walker_blocks_nothing(self, tmp_path):
        doc = tmp_path / "empty.yaml"
        doc.write_text("human: {count: 0}\n")
        res = run_cli("blockage", "--scenario", str(doc), "--mc", "2000")
        assert res.returncode == 0
        rows = res.stdout.splitlines()[1:]
        assert {r.split(",")[4] for r in rows} == {"quadrature", "mc"}
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)

    def test_default_room_stdout_digest(self):
        # one quadrature marginal per link of the default room: a change to
        # any blocking region shows here
        res = run_cli("blockage")
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == "06a54d24301b490ed0a94f5c2ecb8fee42e2fc3b02dc48028c1d3054a2b56636"

    @pytest.mark.parametrize(
        "name, want",
        [
            ("dense_tile.yaml", "5a85deadf1db6c7f7dafb13b7b4963ffdaa0393117566630127ff7e4c6abdb06"),
            ("tilted.yaml", "e40e4cb2209bebb373e051e7f0ff8900a5831c9192bb4e9d06b36b8d2dbe7a3b"),
        ],
    )
    def test_scenario_stdout_digest(self, name, want):
        # the marginals of rooms past the default one: many regions at once,
        # and links from tilted terminals
        res = run_cli("blockage", "--scenario", str(Path(__file__).with_name(name)))
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == want


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

    # stdout SHA-256 of the default room, recorded when the first bounce
    # moved from its tile centre to the beam's hit point; any change to a
    # printed gain shows here
    DEFAULT_ROOM_STDOUT_SHA256 = {
        "matrix": "9bc0539f39da7fcacdf94ebcaba4a155720612ed6fcb700bfe81a65add70193a",
        "cir-r1-u1": "327a3f182073e1d28ac0b15999091cfa3f8bc9c4c6593fe5f219b333484e23ed",
        "cir-ap1-r1": "fe48f411d1a7d3ed84baea1dd4248b9b581d4877dcb436b57cab2774e66bf478",
    }

    @pytest.mark.parametrize(
        "key,argv",
        [
            ("matrix", ()),
            ("cir-r1-u1", ("--tx", "r1", "--rx", "u1", "--cir")),
            ("cir-ap1-r1", ("--tx", "ap1", "--rx", "r1", "--cir")),
        ],
        ids=["matrix", "cir-r1-u1", "cir-ap1-r1"],
    )
    def test_default_room_stdout_digest(self, key, argv):
        res = run_cli("channel", *argv)
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == self.DEFAULT_ROOM_STDOUT_SHA256[key]

    # the same for tests/tilted.yaml, whose users and relay r1 point along
    # other boresights than the defaults
    TILTED_ROOM_STDOUT_SHA256 = {
        "matrix": "1e4f780e579244e9f3f9c4db734c0395b85d319d889fce4fb3c3beddbd0634ff",
        "cir-r1-u1": "b76e6c5d3d62e686e92c4450fe9e84df4275548d2af06c2f1b0dae3eee6a8881",
    }

    @pytest.mark.parametrize(
        "key,argv",
        [("matrix", ()), ("cir-r1-u1", ("--tx", "r1", "--rx", "u1", "--cir"))],
        ids=["matrix", "cir-r1-u1"],
    )
    def test_tilted_room_stdout_digest(self, key, argv):
        tilted = Path(__file__).with_name("tilted.yaml")
        res = run_cli("channel", "--scenario", str(tilted), *argv)
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == self.TILTED_ROOM_STDOUT_SHA256[key]

    # the same for tests/dense_tile.yaml, whose four users and three relays
    # each see their own share of the grid's tiles
    DENSE_TILE_STDOUT_SHA256 = (
        "0e82c6d99c0064f38cad64b876f990a017a487f79aa9e83bbd890ac1a7395d62"
    )

    def test_dense_tile_room_stdout_digest(self):
        dense = Path(__file__).with_name("dense_tile.yaml")
        res = run_cli("channel", "--scenario", str(dense))
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == self.DENSE_TILE_STDOUT_SHA256


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
        room = default_scenario().room
        for line in lines[1:]:
            x, y, d = (float(v) for v in line.split(","))
            assert d == pytest.approx(pdf_xy(room, x, y), rel=1e-9)
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

    def test_non_finite_number_in_scenario(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sampler: {samples: .inf}\n")
        res = run_cli("simulate", "--scenario", str(bad))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: sampler.samples: expected an integer")
        assert "Traceback" not in res.stderr

    @MALFORMED_YAML
    def test_malformed_yaml_names_file_and_line(self, tmp_path, doc, line, command):
        # every subcommand reads its scenario through load_scenario; each
        # document goes through a different one
        path = tmp_path / "broken.yaml"
        path.write_text(doc)
        res = run_cli(command, "--scenario", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {path}: line {line}: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "doc,link_id",
        [
            ("associations: {ap1: [u3]}\n", "ap1->u3"),
            ("relay_pairings: {r1: ap8}\n", "ap8->r1"),
            # responses are computed receiver by receiver, u1's two links
            # first, and the first response that meets an unservable link
            # names it, though ap1->u2 comes earlier in link order
            ("associations: {ap1: [u1, u2], ap2: [u1]}\n", "ap2->u1"),
        ],
        ids=["association", "relay-pairing", "first-in-response-order"],
    )
    def test_unservable_explicit_map_names_the_link(self, tmp_path, doc, link_id):
        path = tmp_path / "map.yaml"
        path.write_text(doc)
        res = run_cli("simulate", "--method", "exact", "--scenario", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: link {link_id}: target needs")
        assert "Traceback" not in res.stderr

    def test_id_shared_across_kinds_is_rejected(self, tmp_path):
        # a relay named like a user would otherwise merge their links
        path = tmp_path / "dupid.yaml"
        path.write_text("relays: [{id: u1, position_m: [0.0, 1.0, 1.5]}]\n")
        res = run_cli("simulate", "--samples", "4096", "--scenario", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: users[0].id: duplicate id 'u1'\n"

    def test_invalid_room_is_the_only_error(self, tmp_path):
        # the room section fails while it loads, before any terminal is
        # checked against its extents
        path = tmp_path / "flat.yaml"
        path.write_text("room: {width_m: 0.0}\n")
        res = run_cli("simulate", "--samples", "4096", "--scenario", str(path))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: room.width_m: must be positive\n"

    @pytest.mark.parametrize(
        "key, size",
        [
            ("second_bounce_res_m", "4e+15 tiles of 1e-15 m along a face axis"),
            ("bin_ns", "6.028e+16 bins of 1e-15 ns"),
        ],
    )
    def test_channel_size_too_large_to_allocate(self, tmp_path, capsys, key, size):
        # each size would ask numpy for petabytes; it fails with one line
        # naming the size before any array is built
        path = tmp_path / "fine.yaml"
        path.write_text(f"channel: {{{key}: 1.0e-15}}\n")
        for argv in (["channel"], ["simulate", "--samples", "4096"]):
            assert cli.main([*argv, "--scenario", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {size}, more than 4194304\n"

    def test_first_bounce_tile_size_is_an_unknown_key(self, tmp_path, capsys):
        # the first bounce re-radiates from the hit point itself, so a file
        # that still sizes its tile names a key that no longer exists
        path = tmp_path / "tile.yaml"
        path.write_text("channel: {first_bounce_res_m: 0.05}\n")
        for argv in (["channel"], ["simulate", "--samples", "4096"]):
            assert cli.main([*argv, "--scenario", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: unknown key: channel.first_bounce_res_m\n"

    def test_subnormal_bin_width_is_too_fine(self, tmp_path):
        # 1e-320 ns is a positive width whose value in seconds underflows to
        # 0: the bins are counted without dividing by it, and nothing is warned
        path = tmp_path / "subnormal.yaml"
        path.write_text("channel: {bin_ns: 1.0e-320}\n")
        for argv in (["channel"], ["simulate", "--samples", "4096"]):
            res = run_cli(*argv, "--scenario", str(path))
            assert res.returncode == 1
            assert res.stdout == ""
            assert res.stderr == "error: inf bins of 9.99989e-321 ns, more than 4194304\n"

    def test_closed_stdout_is_not_an_error(self):
        # a reader that stops after one line, as ``| head -n 1`` does: the
        # 40,000 density rows overflow the pipe, so the writer meets the
        # closed end, and stops quietly
        proc = subprocess.Popen(
            [sys.executable, "-m", "owcrelay.cli", "pdf", "--grid", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"x,y,density\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=600) == 0
        assert err == b""

    def test_unwritable_out_path_is_an_error(self, single_link_file, tmp_path):
        out = tmp_path / "missing" / "rows.csv"
        res = run_cli(
            "simulate", "--scenario", single_link_file, "--samples", "4096", "--out", str(out)
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr

    def test_missing_scenario_file(self):
        res = run_cli("blockage", "--scenario", "/nonexistent/path.yaml")
        assert res.returncode == 1
        assert res.stderr.startswith("error:")

    def test_quadrature_failure_is_clean_error(self, monkeypatch, capsys):
        # a real trigger (a 0.1 mm walker) takes seconds to exhaust the
        # 6M-cell budget, so the failure is injected where the CLI meets it
        def stalled(budget):
            raise QuadratureError("cell budget 6000000 exhausted before convergence", 0.0)

        monkeypatch.setattr(cli, "ensure_marginals", stalled)
        assert cli.main(["blockage"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell budget")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("blockage", "--mc", "10"), ("pdf", "--samples", "10")], ids=["blockage", "pdf"]
    )
    def test_allocation_failure_is_clean_error(self, argv, monkeypatch, capsys):
        # whether a real huge count fails fast depends on the host's memory
        # overcommit, so the failure is injected where the sample array is made
        def too_large(room, n, rng):
            raise MemoryError(f"Unable to allocate an array with shape (2, {n})")

        monkeypatch.setattr(cli, "sample_human_positions", too_large)
        assert cli.main(list(argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pdf", "--grid", "-1"),
            ("pdf", "--samples", "-1"),
            ("blockage", "--mc", "-1"),
            ("simulate", "--workers", "-1"),
            ("simulate", "--seed", "-1"),
            ("blockage", "--seed", "-1", "--mc", "10"),
            ("pdf", "--seed", "-1", "--samples", "10"),
            ("simulate", "--samples", "-1"),
        ],
        ids=[
            "pdf-grid", "pdf-samples", "blockage-mc", "simulate-workers",
            "simulate-seed", "blockage-seed", "pdf-seed", "simulate-samples",
        ],
    )
    def test_negative_counts_rejected_at_parse_time(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "must be non-negative, got -1" in res.stderr

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("simulate", "--samples", "1e3"), "1e3"),
            (("pdf", "--grid", "2.5"), "2.5"),
            (("blockage", "--mc", "many"), "many"),
            (("simulate", "--workers", ""), ""),
        ],
        ids=[
            "simulate-samples-exp", "pdf-grid-fraction", "blockage-mc-word",
            "simulate-workers-empty",
        ],
    )
    def test_non_integer_counts_rejected_at_parse_time(self, argv, text):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"expected a non-negative integer, got {text!r}" in res.stderr
        assert "_count" not in res.stderr

    def test_sample_count_above_cap(self):
        res = run_cli("simulate", "--samples", "4294967297")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: samples: must lie in [1, 4294967296]\n"

    def test_exact_method_refuses_joint_model(self):
        # enumeration is the independent-link model; it must not print those
        # rows under the joint model's name
        res = run_cli("simulate", "--method", "exact", "--blockage-model", "joint")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: exact enumeration is the independent-link model")
        assert "--method mc" in res.stderr
        assert run_cli("simulate", "--method", "exact", "--blockage-model", "independent").returncode == 0

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_format_without_out_is_refused(self, fmt, tmp_path):
        # standard output is always CSV, so a format with no file to write
        # would be ignored without a word
        res = run_cli("simulate", "--samples", "4096", "--format", fmt)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: --format needs --out; standard output is always CSV\n"
        out = tmp_path / f"rows.{fmt}"
        res = run_cli("simulate", "--samples", "4096", "--format", fmt, "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().startswith("{" if fmt == "jsonl" else "user_id,")

    def test_unknown_mode_rejected_at_parse_time(self):
        res = run_cli("simulate", "--mode", "relay")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "argument --mode: invalid choice" in res.stderr


# Runs owcrelay.cli.main on the arguments given, prints its rows, and names on
# stderr which of the modules a run may leave unloaded it loaded.
_IMPORTS_CHILD = """
import sys
from owcrelay.cli import main
code = main(sys.argv[1:])
loaded = [m for m in ("yaml", "concurrent.futures.process") if m in sys.modules]
print(" ".join(loaded), file=sys.stderr)
sys.exit(code)
"""


def run_main_fresh(*argv):
    """stdout and the modules loaded of one ``main`` call in a new process."""
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert res.returncode == 0, res.stderr
    return res.stdout, set(res.stderr.split())


class TestImports:
    # a run loads yaml only for a scenario file, and the process pool only
    # when it has more than one worker

    def test_default_run_loads_neither(self):
        _, loaded = run_main_fresh("simulate", "--samples", "4096")
        assert loaded == set()

    def test_scenario_file_loads_yaml(self):
        tilted = str(Path(__file__).with_name("tilted.yaml"))
        _, loaded = run_main_fresh("simulate", "--samples", "4096", "--scenario", tilted)
        assert loaded == {"yaml"}

    def test_workers_load_the_pool(self):
        two, loaded = run_main_fresh("simulate", "--samples", "100000", "--workers", "2")
        assert loaded == {"concurrent.futures.process"}
        one, loaded = run_main_fresh("simulate", "--samples", "100000", "--workers", "1")
        assert loaded == set()
        assert two == one and len(two.splitlines()) == 13
