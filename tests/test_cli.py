import pytest

from rdvmatch.cli import main
from rdvmatch.gen import GenConfig, fixture_trampoline_instance, gen_random
from rdvmatch.io import save_instance

K2_TEXT = "tree 1\nparents 0\nvertices 2 1\nv 1 1\nv 1 1\n"


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.rdv"
    path.write_text(K2_TEXT)
    return str(path)


@pytest.fixture
def trampoline_file(tmp_path):
    path = tmp_path / "trampoline.rdv"
    save_instance(fixture_trampoline_instance(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid_file(self, capsys, k2_file):
        code, out, _ = run(capsys, "validate", k2_file)
        assert code == 0
        assert "ok" in out

    def test_invalid_file(self, capsys, tmp_path):
        path = tmp_path / "bad.rdv"
        path.write_text("tree 2\nparents 0 1\nvertices 1 1\nv 2 1\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "not ancestor" in out

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "broken.rdv"
        path.write_text("tree 2\nparents 0 x\n")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "validate", str(path))
        assert "line 2" in str(exc.value)


class TestMatch:
    def test_k2_output(self, capsys, k2_file):
        code, out, _ = run(capsys, "match", k2_file)
        assert code == 0
        assert out == "matching 1\ne 1 2\n"

    def test_delayed_and_greedy_agree_bytewise(self, capsys, tmp_path):
        path = tmp_path / "rand.rdv"
        save_instance(
            gen_random(GenConfig(seed=42, tree_nodes=40, n_vertices=35)), path
        )
        _, delayed_out, _ = run(capsys, "match", "--algo", "delayed", str(path))
        _, greedy_out, _ = run(capsys, "match", "--algo", "greedy", str(path))
        assert delayed_out == greedy_out

    def test_delta_on_trampoline(self, capsys, trampoline_file):
        code, out, _ = run(capsys, "match", "--algo", "delta", trampoline_file)
        assert code == 0
        assert out == "matching 3\ne 1 6\ne 2 5\ne 3 8\n"

    def test_delayed_rejects_delta_file(self, capsys, trampoline_file):
        with pytest.raises(SystemExit):
            run(capsys, "match", "--algo", "delayed", trampoline_file)

    @pytest.mark.parametrize(
        "text",
        [
            "tree 2\nparents 0 1\nvertices 2 1\nv 5 5\nv 1 2\n",
            "tree 3\nparents 0 1 1\nvertices 2 1\nv 2 3\nv 1 2\n",
        ],
        ids=["node-out-of-range", "top-not-ancestor"],
    )
    @pytest.mark.parametrize("algo", ["delayed", "greedy", "delta"])
    def test_invalid_instance_rejected(self, capsys, tmp_path, text, algo):
        path = tmp_path / "bad.rdv"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "match", "--algo", algo, str(path))
        assert str(exc.value).startswith("error: invalid instance")

    def test_output_file(self, capsys, k2_file, tmp_path):
        out_path = tmp_path / "m.txt"
        code, out, _ = run(capsys, "match", k2_file, "-o", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text() == "matching 1\ne 1 2\n"


class TestOracle:
    def test_trampoline_maximum(self, capsys, trampoline_file):
        code, out, _ = run(capsys, "oracle", trampoline_file)
        assert code == 0
        assert out.strip() == "4"

    def test_bound_enforced(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "big.rdv"
        save_instance(
            gen_random(GenConfig(seed=1, tree_nodes=40, n_vertices=30)), path
        )

        def no_adjacency(inst):
            raise AssertionError("adjacency built before the bound was checked")

        monkeypatch.setattr("rdvmatch.cli.oracle_adjacency", no_adjacency)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "oracle", str(path), "--bound", "24")
        assert exc.value.code == "error: graph has 30 vertices, oracle bound is 24"


class TestGen:
    def test_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.rdv", tmp_path / "b.rdv"
        for target in (a, b):
            code, _, _ = run(
                capsys,
                "gen", "--seed", "7", "--tree-nodes", "20", "--vertices", "15",
                "-o", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dense_flag(self, capsys, tmp_path):
        path = tmp_path / "dense.rdv"
        code, _, _ = run(capsys, "gen", "--dense", "--vertices", "16", "-o", str(path))
        assert code == 0
        assert "tree 16" in path.read_text()

    def test_generated_files_validate(self, capsys, tmp_path):
        path = tmp_path / "g.rdv"
        run(capsys, "gen", "--seed", "3", "--vertices", "12", "--delta", "2",
            "-o", str(path))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 0


class TestSegments:
    def test_dump_covers_nodes_segments_rays(self, capsys, trampoline_file):
        code, out, _ = run(capsys, "segments", trampoline_file)
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("node ")) == 5
        assert sum(1 for l in lines if l.startswith("seg ")) == 8
        assert sum(1 for l in lines if l.startswith("ray ")) == 10  # two delta-2 vertices
        assert "node 1 1 0 3" in lines[0]


class TestBench:
    def test_tiny_sweep_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys,
            "bench", "--family", "dense", "--min-exp", "3", "--max-exp", "4",
            "--repeats", "2", "-o", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[1].startswith("n,tree_nodes,edges,algo,median_ns")
        assert len(lines) == 4

    def test_crosscheck_flag(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, err = run(
            capsys,
            "bench", "--family", "random", "--min-exp", "3", "--max-exp", "3",
            "--repeats", "1", "--crosscheck", "5", "-o", str(out_csv),
        )
        assert code == 0
        assert "5/5 passed" in err


class TestErrors:
    def test_unknown_flag_exits_nonzero(self, capsys, k2_file):
        with pytest.raises(SystemExit) as exc:
            main(["match", k2_file, "--frobnicate"])
        assert exc.value.code != 0

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "/nonexistent/path.rdv"])

    def test_directory_argument(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["match", str(tmp_path)])
        assert str(exc.value).startswith(f"error: cannot open {tmp_path}")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.rdv"
        path.write_bytes(b"tree 1\nparents 0\nvertices 1 1\nv 1 1 # caf\xe9\n")
        with pytest.raises(SystemExit) as exc:
            main(["match", str(path)])
        assert str(exc.value) == f"error: {path}: not UTF-8 text (byte 41)"

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["gen", "--tree-nodes", "0", "--vertices", "3"], "bad generator config"),
            (["gen", "--dense", "--vertices", "1"], "dense family needs n >= 2"),
        ],
        ids=["tree-nodes-0", "dense-1-vertex"],
    )
    def test_gen_rejects_bad_sizes(self, tmp_path, argv, needle):
        out = tmp_path / "g.rdv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(out)])
        assert str(exc.value).startswith("error: ")
        assert needle in str(exc.value)
        assert not out.exists()

    def test_unwritable_output(self, k2_file, tmp_path):
        out = tmp_path / "missing-dir" / "m.txt"
        with pytest.raises(SystemExit) as exc:
            main(["match", k2_file, "-o", str(out)])
        assert str(exc.value).startswith(f"error: cannot write {out}")

    def test_bench_rejects_zero_repeats(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--repeats", "0", "--min-exp", "3", "--max-exp", "3"])
        assert str(exc.value) == "error: --repeats must be at least 1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--min-exp", "-1", "--max-exp", "2"], "error: --min-exp must be at least 0"),
            (
                ["--family", "dense", "--min-exp", "0", "--max-exp", "1"],
                "error: dense family needs n >= 2, got 1",
            ),
            (
                ["--crosscheck", "-3", "--min-exp", "2", "--max-exp", "2"],
                "error: --crosscheck must be at least 0",
            ),
        ],
        ids=["negative-min-exp", "dense-1-vertex", "negative-crosscheck"],
    )
    def test_bench_rejects_bad_input(self, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--repeats", "1", *argv])
        assert str(exc.value) == message
