import numpy as np
import pytest

from succinctrmq.cli import main
from succinctrmq.lcp import LcpData
from succinctrmq.rmq import BUILD_PHASES, FORMAT_VERSION
from succinctrmq.serial import read_stream, write_stream

from test_trees import FIG_ARRAY


@pytest.fixture()
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(" ".join(map(str, FIG_ARRAY)))
    return str(path)


def kv_lines(output: str) -> dict:
    out = {}
    for line in output.splitlines():
        if "=" in line and " " not in line.split("=")[0]:
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestBuildCommand:
    def test_build_report_sums(self, fig_file, tmp_path, capsys):
        out = str(tmp_path / "fig.idx")
        assert main(["build", fig_file, "-o", out, "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        total = int(kv["bits_total"])
        parts = [int(v) for k, v in kv.items() if k.startswith("bits_") and
                 k not in ("bits_total", "bits_per_element")]
        assert sum(parts) == total
        # single micro tree: its payload stays within the whole-tree code
        # budget of <= 31 body bits plus a small header
        assert int(kv["bits_micro_payload"]) <= 31 + 9

    def test_build_random_entropy_window(self, tmp_path, capsys):
        assert main(["build", "--random", "100000", "--seed", "1",
                     "--codec", "entropy", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert 1.5 <= float(kv["micro_payload_per_element"]) <= 2.0

    def test_build_fixed_codec_rate(self, tmp_path, capsys):
        assert main(["build", "--random", "30000", "--seed", "2",
                     "--codec", "fixed", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        rate = float(kv["designed_payload_per_element"])
        assert 2.0 <= rate <= 2.2  # ~2 + O(1)/micro-size per node
        assert float(kv["micro_payload_per_element"]) == 0  # a fixed file stores no payload

    @pytest.mark.parametrize("codec", ["fixed", "entropy", "huffman"])
    def test_build_names_the_query_form(self, codec, capsys):
        # queries read TYPR; only entropy stores its payload, TARR
        assert main(["build", "--random", "20000", "--seed", "3",
                     "--codec", codec, "--kv"]) == 0
        out = capsys.readouterr().out
        kv = kv_lines(out)
        line = next(x for x in out.splitlines() if x.startswith("micro types: "))
        assert "queries read TYPR" in line and f"designed {codec} payload" in line
        assert 2.0 <= float(kv["query_form_per_element"]) <= 2.2
        assert float(kv["model_entropy_per_element"]) == pytest.approx(1.736, abs=0.001)
        stored = float(kv["micro_payload_per_element"])
        designed = float(kv["designed_payload_per_element"])
        if codec == "entropy":
            assert stored == designed > 0 and int(kv["bits_micro_payload"]) > 0
        else:
            assert stored == 0 < designed and int(kv["bits_micro_payload"]) == 0

    def test_build_phase_timings(self, fig_file, capsys):
        assert main(["build", fig_file, "--kv"]) == 0
        out = capsys.readouterr().out
        kv = kv_lines(out)
        for phase in BUILD_PHASES:
            assert float(kv[f"build_{phase}_s"]) >= 0
        assert "build phases: cartesian" in out

    def test_build_missing_input(self, capsys):
        assert main(["build"]) == 1

    def test_build_empty_random(self, capsys):
        assert main(["build", "--random", "0"]) == 1

    def test_dump_cover(self, fig_file, capsys):
        assert main(["build", fig_file, "--dump-cover"]) == 0
        out = capsys.readouterr().out
        assert "cover: n=20 micros=" in out and "micro k=1: root_pre=1 " in out

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a = str(tmp_path / "a.idx")
        b = str(tmp_path / "b.idx")
        assert main(["build", "--random", "5000", "--seed", "9", "-o", a]) == 0
        assert main(["build", "--random", "5000", "--seed", "9", "-o", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestQueryCommand:
    def test_fig_queries(self, fig_file, tmp_path, capsys):
        out = str(tmp_path / "fig.idx")
        assert main(["build", fig_file, "-o", out]) == 0
        capsys.readouterr()
        assert main(["query", out, "1", "20", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert kv["result"] == "19"
        assert main(["query", out, "4", "8", "--kv"]) == 0
        assert kv_lines(capsys.readouterr().out)["result"] == "5"

    def test_bad_index_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"not an index")
        assert main(["query", str(bad), "1", "2"]) == 1

    def test_truncated_index_file(self, tmp_path, capsys):
        path = tmp_path / "idx.bin"
        assert main(["build", "--random", "5000", "--seed", "3", "-o", str(path)]) == 0
        blob = path.read_bytes()
        _, sections = read_stream(blob)
        cut_section = write_stream(FORMAT_VERSION, [
            (tag, payload[:-1] if tag == b"MICR" else payload) for tag, payload in sections.items()])
        capsys.readouterr()
        for data in (blob[:200], cut_section):
            path.write_bytes(data)
            assert main(["query", str(path), "1", "5000"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        assert main(["verify", "--n", "96", "--trials", "4", "--seed", "3", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert kv["status"] == "pass" and int(kv["failures"]) == 0

    def test_adversarial_path_input(self, capsys):
        # the adversarial set inside verify includes sorted/reverse paths
        assert main(["verify", "--n", "128", "--trials", "1", "--seed", "0"]) == 0


class TestEntropyTable:
    def test_values(self, capsys):
        assert main(["entropy-table", "--n-max", "20", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert abs(float(kv["H_2"]) - 1.0) < 1e-9
        assert abs(float(kv["H_20"]) - 29.2209) < 0.0005

    def test_large_ratio(self, capsys):
        assert main(["entropy-table", "--n-max", "10000", "--geometric", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        ratio = float(kv["H_10000"]) / 10000
        assert 1.70 < ratio < 1.7364

    def test_usage(self, capsys):
        assert main(["entropy-table", "--n-max", "1"]) == 1


class TestEncodeDecode:
    def test_roundtrip_via_files(self, fig_file, tmp_path, capsys):
        code = str(tmp_path / "fig.code")
        assert main(["encode", fig_file, "-o", code, "--kv", "--dump"]) == 0
        out = capsys.readouterr().out
        kv = kv_lines(out)
        assert kv["n"] == "20"
        assert int(kv["body_len"]) <= 31
        assert kv["selector"] == "subtree-size"
        shape_line = [l for l in out.splitlines() if l.startswith("shape:")][0]
        assert main(["decode", code]) == 0
        out2 = capsys.readouterr().out
        assert shape_line in out2
        assert "18 9 8 4 3 1 0 0 1 0 0 5 3 2 1 0 0 1 0 0" in out2

    def test_decode_rejects_trailing_byte(self, fig_file, tmp_path, capsys):
        code = tmp_path / "fig.code"
        assert main(["encode", fig_file, "-o", str(code)]) == 0
        code.write_bytes(code.read_bytes() + b"\0")
        capsys.readouterr()
        assert main(["decode", str(code)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "stray bytes" in captured.err


class TestLcpIngest:
    def test_aaaa(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_bytes(b"aaaa")
        out = tmp_path / "lcp.txt"
        assert main(["lcp-ingest", str(text), "-o", str(out), "--spot-checks", "50"]) == 0
        assert out.read_text().split() == ["0", "1", "2", "3"]

    def test_spot_checks_and_chain(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_bytes(b"abracadabra" * 30)
        lcp_file = tmp_path / "lcp.txt"
        assert main(["lcp-ingest", str(text), "-o", str(lcp_file),
                     "--spot-checks", "300"]) == 0
        # the emitted LCP array feeds straight into build
        assert main(["build", str(lcp_file)]) == 0

    def test_wrong_lce_is_a_mismatch(self, tmp_path, capsys, monkeypatch):
        # the spot checks compare against the text itself, not the index
        text = tmp_path / "t.txt"
        text.write_bytes(b"abracadabra" * 30)
        monkeypatch.setattr(LcpData, "lce", lambda self, i, j, rmq_query: -1)
        assert main(["lcp-ingest", str(text), "--spot-checks", "20"]) == 2
        err = capsys.readouterr().err
        assert err.count("MISMATCH lce(") == 20

    def test_empty_text(self, tmp_path):
        text = tmp_path / "e.txt"
        text.write_bytes(b"")
        assert main(["lcp-ingest", str(text)]) == 1


class TestBench:
    def test_runs(self, capsys):
        assert main(["bench", "--n", "3000", "--queries", "200", "--kv"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert float(kv["ops_per_query"]) > 0
        assert float(kv["cold_us_per_query"]) > 0
        assert 1 <= int(kv["cold_tables_built"]) <= 200  # at most one table per query
        assert float(kv["us_per_query"]) > 0
        phases = [float(kv[f"build_{phase}_s"]) for phase in BUILD_PHASES]
        assert min(phases) >= 0 and sum(phases) <= float(kv["build_seconds"]) + 0.005

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_rejects_no_queries(self, count, capsys):
        assert main(["bench", "--n", "1000", "--queries", count]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--queries" in err
