import os
import struct
import warnings

import numpy as np
import pytest

from piecy import datagen, mergereduce, pipeline, streams
from piecy.cli import main
from piecy.streams import PointSource


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stable_keys(report):
    return {k: v for k, v in report.items() if not k.endswith("_seconds")}


class TestGeneratorMode:
    def test_swn_generation(self, tmp_path, capsys):
        out = tmp_path / "swn.bin"
        code, stdout, _ = run_cli(capsys, "--gen", "swn", "--clusters", "4",
                                  "--y", "6", "--d", "10", "--x", "2",
                                  "--seed", "1", "--out", str(out))
        assert code == 0
        assert "24 points" in stdout
        src = PointSource(str(out), "bin")
        assert src.dim == 10
        assert len(list(src)) == 24

    def test_lb_generation_csv(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        code, stdout, _ = run_cli(capsys, "--gen", "lb", "--k", "3", "--n", "9",
                                  "--out", str(out))
        assert code == 0
        src = PointSource(str(out), "csv")
        assert src.dim == 12
        assert len(list(src)) == 9

    @pytest.mark.parametrize("flags, generate, cfg", [
        (("swn", "--clusters", "2", "--y", "3", "--d", "4", "--x", "2"),
         datagen.structured_with_noise,
         datagen.SwnConfig(clusters=2, points_per_cluster=3, dim=4, active_dims=2,
                           spread=3.0, noise=0.25, seed=5)),
        (("lb", "--k", "2", "--n", "6"), datagen.lower_bound,
         datagen.LowerBoundConfig(k=2, n=6, spread=3.0, noise=0.25)),
        (("random", "--n", "6"), datagen.random_cube,
         datagen.RandomConfig(n=6, spread=3.0, seed=5)),
    ])
    def test_range_flags_reach_the_family_config(self, tmp_path, capsys, flags,
                                                 generate, cfg):
        out = tmp_path / "g.bin"
        code, _, _ = run_cli(capsys, "--gen", *flags, "--spread", "3", "--noise", "0.25",
                             "--seed", "5", "--out", str(out))
        assert code == 0
        got = np.stack(list(PointSource(str(out), "bin")))
        assert np.array_equal(got, np.stack(list(generate(cfg))))

    def test_missing_flag_is_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--gen", "swn", "--clusters", "4",
                               "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert "--y" in err

    @pytest.mark.parametrize("algo", [(), ("--algo", "bico", "--k", "2")],
                             ids=["generator", "run"])
    @pytest.mark.parametrize("family, seed", [
        (("swn", "--clusters", "2", "--y", "5", "--d", "3", "--x", "1"), "-1"),
        (("random", "--n", "3"), str(2**128)),
    ], ids=["swn-negative", "random-too-large"])
    def test_seed_out_of_range_is_rejected_before_writing(self, tmp_path, capsys, algo,
                                                          family, seed):
        out = tmp_path / "neg.bin"
        code, stdout, err = run_cli(capsys, *algo, "--gen", *family, "--seed", seed,
                                    "--out", str(out))
        assert code == 2
        assert "seed" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("algo", [(), ("--algo", "piecy", "--k", "2")],
                             ids=["generator", "run"])
    @pytest.mark.parametrize("family, name", [
        (("random", "--n", "50", "--spread", "nan"), "spread"),
        (("random", "--n", "50", "--spread", "inf"), "spread"),
        (("swn", "--clusters", "2", "--y", "3", "--d", "4", "--x", "1", "--spread", "inf"),
         "spread"),
        (("lb", "--k", "2", "--n", "4", "--spread", "inf", "--noise", "1"), "spread"),
        (("lb", "--k", "2", "--n", "4", "--noise=-inf"), "noise"),
    ], ids=["random-nan", "random-inf", "swn-inf", "lb-inf", "lb-noise"])
    def test_non_finite_range_is_rejected_before_writing(self, tmp_path, capsys, algo,
                                                         family, name):
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(capsys, *algo, "--gen", *family, "--out", str(out))
        assert code == 2
        assert f"{name} must be finite" in err
        assert stdout == ""
        assert not out.exists()


class TestRunMode:
    def gen_file(self, tmp_path, capsys, seed=1):
        path = tmp_path / "data.bin"
        run_cli(capsys, "--gen", "swn", "--clusters", "5", "--y", "40",
                "--d", "20", "--x", "4", "--seed", str(seed),
                "--out", str(path))
        return path

    def test_piecy_run_report(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "--algo", "piecy", "--k", "5",
                                  "--piece-size", "50", "--svd-dim", "6",
                                  "--coreset-size", "60", "--seed", "3",
                                  "--input", str(data))
        assert code == 0
        report = parse_report(stdout)
        assert report["algorithm"] == "piecy"
        assert report["n"] == "200"
        assert report["d"] == "20"
        assert int(report["coreset_size"]) <= 60
        assert report["coreset_total_weight"] == "200"
        assert int(report["svd_calls"]) == 4
        assert float(report["coreset_cost_median"]) >= 0.0
        assert float(report["ingest_seconds"]) >= 0.0

    def test_bico_run_report(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "4",
                                  "--coreset-size", "50", "--input", str(data))
        assert code == 0
        report = parse_report(stdout)
        assert report["algorithm"] == "bico"
        assert report["n"] == "200"
        assert report["coreset_budget"] == "50"
        assert int(report["coreset_size"]) <= 50
        assert report["coreset_total_weight"] == "200"
        assert report["svd_calls"] == "0"
        # bico has no pieces and no projection
        assert report["piece_size"] == report["svd_dim"] == report["num_pieces"] == "-"

    @pytest.mark.parametrize("budget", [(), ("--coreset-size", "60")])
    def test_piece_size_defaults_to_coreset_budget(self, tmp_path, capsys, budget):
        data = self.gen_file(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "--algo", "piecy", "--k", "2",
                                  "--svd-dim", "3", *budget, "--input", str(data))
        assert code == 0
        report = parse_report(stdout)
        assert report["coreset_budget"] == ("400" if not budget else "60")
        assert report["piece_size"] == report["coreset_budget"]
        assert report["svd_dim"] == "3"
        pieces = -(-200 // int(report["piece_size"]))
        assert int(report["svd_calls"]) == pieces

    def test_report_deterministic_except_timings(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        args = ("--algo", "piecy-mr", "--k", "4", "--piece-size", "40",
                "--np", "2", "--svd-dim", "5", "--coreset-size", "40",
                "--seed", "9", "--input", str(data))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert stable_keys(parse_report(out1)) == stable_keys(parse_report(out2))

    def test_piecy_mr_takes_ten_pieces_per_flush_by_default(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "--algo", "piecy-mr", "--k", "2",
                                  "--piece-size", "20", "--svd-dim", "3",
                                  "--coreset-size", "20", "--input", str(data))
        assert code == 0
        assert parse_report(stdout)["num_pieces"] == "10"

    def test_bico_cost_zero_on_k_repeated_points(self, tmp_path, capsys):
        path = tmp_path / "rep.csv"
        rows = ["1,1", "5,5", "9,1"] * 30
        path.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "3",
                                  "--coreset-size", "10", "--input", str(path),
                                  "--reps", "3")
        assert code == 0
        report = parse_report(stdout)
        assert float(report["coreset_cost_max"]) == pytest.approx(0.0, abs=1e-9)

    def test_eval_both_reports_coreset_and_fulldata(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "4",
                                  "--coreset-size", "50", "--input", str(data),
                                  "--eval", "both", "--reps", "2")
        assert code == 0
        report = parse_report(stdout)
        assert "coreset_cost_median" in report
        assert "fulldata_cost_median" in report
        # full-data cost of the same centers is at least the summary cost
        assert float(report["fulldata_cost_min"]) > 0.0

    def test_coreset_output_is_weighted_stream(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        out = tmp_path / "coreset.bin"
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "4",
                                  "--coreset-size", "30", "--input", str(data),
                                  "--out", str(out))
        assert code == 0
        report = parse_report(stdout)
        pairs = list(PointSource(str(out), "bin", weighted=True))
        assert len(pairs) == int(report["coreset_size"])
        assert sum(w for _, w in pairs) == 200

    def test_run_from_inprocess_generator(self, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "--algo", "piecy", "--k", "3",
                                  "--piece-size", "30", "--svd-dim", "4",
                                  "--coreset-size", "30", "--seed", "2",
                                  "--gen", "swn", "--clusters", "3", "--y", "20",
                                  "--d", "12", "--x", "3")
        assert code == 0
        report = parse_report(stdout)
        assert report["n"] == "60"
        assert report["source"] == "gen:swn"

    def test_report_written_to_file(self, tmp_path, capsys):
        data = self.gen_file(tmp_path, capsys)
        report_path = tmp_path / "report.txt"
        _, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "3",
                               "--coreset-size", "30", "--input", str(data),
                               "--report", str(report_path))
        assert report_path.read_text() == stdout

    def test_weighted_input_only_for_bico(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("2,1.0,2.0\n3,5.0,6.0\n")
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "1",
                                  "--coreset-size", "5", "--weighted",
                                  "--input", str(path), "--reps", "1")
        assert code == 0
        assert parse_report(stdout)["coreset_total_weight"] == "5"
        code, _, err = run_cli(capsys, "--algo", "piecy", "--k", "1",
                               "--piece-size", "5", "--svd-dim", "1",
                               "--weighted", "--input", str(path))
        assert code == 2
        assert "weighted" in err


class TestErrors:
    def test_malformed_line_reported_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nbroken,line\n")
        code, _, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                               "--coreset-size", "5", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_non_finite_csv_field_is_reported_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,1e400\n")
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                                    "--coreset-size", "5", "--input", str(path))
        assert code == 2
        assert "line 2: non-finite coordinate" in err
        assert stdout == ""

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "--algo", "bico", "--k", "1")
        assert code == 2
        assert "input" in err

    def test_nothing_to_do(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("algo, flag, name", [
        ("bico", "--coreset-size", "budget"),
        ("piecy", "--svd-dim", "svd_dim"),
        ("piecy", "--piece-size", "piece_size"),
    ])
    def test_zero_size_is_rejected(self, tmp_path, capsys, algo, flag, name):
        path = tmp_path / "p.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        code, stdout, err = run_cli(capsys, "--algo", algo, "--k", "1", flag, "0",
                                    "--input", str(path))
        assert code == 2
        assert stdout == ""
        assert name in err

    @pytest.mark.parametrize("flags, message", [
        (("--algo", "bico", "--k", "1", "--reps", "0"), "--reps"),
        (("--algo", "bico", "--k", "5", "--coreset-size", "2"), "--coreset-size"),
        (("--algo", "piecy-mr", "--k", "5", "--coreset-size", "2",
          "--piece-size", "50"), "coreset_size"),
        # size flags the algorithm does not read
        (("--algo", "bico", "--k", "1", "--piece-size", "50"), "--piece-size"),
        (("--algo", "bico", "--k", "1", "--svd-dim", "3"), "--svd-dim"),
        (("--algo", "bico", "--k", "1", "--np", "4"), "--np"),
        (("--algo", "bico", "--k", "1", "--svd-dim", "0", "--piece-size", "-3",
          "--np", "1"), "--piece-size"),
        (("--algo", "piecy", "--k", "1", "--np", "1"), "--np"),
        (("--algo", "bico", "--k", "1", "--weighted", "--eval", "full"), "unweighted"),
    ])
    def test_bad_configuration_rejected_before_input_is_read(
            self, tmp_path, capsys, flags, message):
        missing = tmp_path / "absent.csv"
        code, stdout, err = run_cli(capsys, *flags, "--input", str(missing))
        assert code == 2
        assert stdout == ""
        assert message in err
        assert "absent" not in err

    def test_weighted_generated_stream_rejected(self, capsys):
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "2", "--gen", "swn",
                                    "--clusters", "2", "--y", "5", "--d", "4", "--x", "2",
                                    "--weighted")
        assert code == 2
        assert stdout == ""
        assert "--weighted" in err

    def test_empty_inputs(self, tmp_path, capsys):
        from piecy.streams import write_bin
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                                    "--input", str(empty))
        assert code == 2
        assert stdout == ""
        assert "empty" in err
        header_only = tmp_path / "header.bin"
        write_bin(header_only, [], 3)
        code, stdout, _ = run_cli(capsys, "--algo", "bico", "--k", "1",
                                  "--input", str(header_only))
        assert code == 0
        report = parse_report(stdout)
        assert report["n"] == "0"
        assert report["coreset_empty"] == "True"

    @pytest.mark.parametrize("rows", ["1,2\n1e200,1e200\n3,4\n", "0,1e200\n1,0\n"],
                             ids=["diagonal", "orthogonal-to-e1"])
    @pytest.mark.parametrize("algo", ["bico", "piecy", "piecy-mr"])
    def test_overflowing_point_reports_only_the_error(self, tmp_path, capsys, algo, rows):
        # Finite coordinates whose squared norm overflows: the run stops
        # with one error line and no numpy warning, even one made an error.
        # The second input's big point has nothing along the first axis.
        path = tmp_path / "big.csv"
        path.write_text(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(capsys, "--algo", algo, "--k", "1",
                                        "--input", str(path))
        assert code == 2
        assert stdout == ""
        assert err == "error: point coordinates overflow\n"

    @pytest.mark.parametrize("weights", [[2**62, 2**62], [10**20]])
    def test_csv_weights_past_int64_are_rejected(self, tmp_path, capsys, weights):
        path = tmp_path / "w.csv"
        path.write_text("".join(f"{w},{i}.0\n" for i, w in enumerate(weights)))
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                                    "--weighted", "--input", str(path))
        assert code == 2
        assert stdout == ""
        assert "total weight" in err

    def test_bin_weight_past_int64_is_rejected(self, tmp_path, capsys):
        from piecy.streams import write_bin
        path = tmp_path / "w.bin"
        write_bin(path, [(np.array([1.0]), 2**63)], 1, weighted=True)  # fits in u64
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                                    "--weighted", "--input", str(path))
        assert code == 2
        assert stdout == ""
        assert "total weight" in err

    @pytest.mark.parametrize("algo", ["bico", "piecy", "piecy-mr"])
    def test_header_dimension_beyond_the_file_is_rejected_before_any_buffer(
            self, tmp_path, capsys, monkeypatch, algo):
        # 76 bytes whose header claims d = 2**26: one record would take 512 MiB,
        # and a piece buffer piece_size times that.
        path = tmp_path / "wide.bin"
        path.write_bytes(struct.pack("<4sII", b"SCPT", 1, 2**26) + bytes(64))

        def no_piece_buffer(*args):
            raise AssertionError("a piece buffer was allocated")

        monkeypatch.setattr(pipeline, "iter_pieces", no_piece_buffer)
        monkeypatch.setattr(mergereduce, "iter_pieces", no_piece_buffer)
        code, stdout, err = run_cli(capsys, "--algo", algo, "--k", "1", "--input", str(path))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {path}: truncated record at byte 12\n"

    @pytest.mark.parametrize("algo", ["piecy", "piecy-mr"])
    def test_piece_buffer_too_large_to_allocate_is_an_error(self, capsys, monkeypatch,
                                                            algo):
        # numpy reports a 10^12-row piece buffer as a MemoryError; the stand-in
        # raises it without allocating anything.
        message = "Unable to allocate 36.4 TiB for an array with shape (1000000000000, 5)"

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(pipeline, "iter_pieces", no_memory)
        monkeypatch.setattr(mergereduce, "iter_pieces", no_memory)
        code, stdout, err = run_cli(capsys, "--algo", algo, "--k", "2",
                                    "--piece-size", "1000000000000", "--gen", "swn",
                                    "--clusters", "2", "--y", "5", "--d", "5", "--x", "1",
                                    "--seed", "1")
        assert code == 2
        assert stdout == ""
        assert err == f"error: {message}\n"

    def test_pipe_input_is_rejected_before_it_is_opened(self, tmp_path, capsys,
                                                        monkeypatch):
        path = tmp_path / "pipe"
        os.mkfifo(path)

        def refuse_open(*args, **kwargs):
            raise AssertionError("the pipe was opened")

        monkeypatch.setattr(streams, "open", refuse_open, raising=False)
        code, stdout, err = run_cli(capsys, "--algo", "bico", "--k", "3",
                                    "--input", str(path), "--format", "bin")
        assert code == 2
        assert stdout == ""
        assert "not a regular file" in err

    def test_truncated_bin_reports_byte(self, tmp_path, capsys):
        from piecy.streams import write_bin
        path = tmp_path / "t.bin"
        write_bin(path, [np.array([1.0, 2.0]), np.array([3.0, 4.0])], 2)
        path.write_bytes(path.read_bytes()[:-3])
        code, _, err = run_cli(capsys, "--algo", "bico", "--k", "1",
                               "--coreset-size", "5", "--input", str(path))
        assert code == 2
        assert "byte" in err
