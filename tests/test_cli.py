import json

import pytest

from fareymosaics.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFareyCommands:
    def test_list(self, capsys):
        code, out = run(capsys, "farey", "list", "--q", "3")
        assert code == 0
        assert out.splitlines() == ["0/1", "1/3", "1/2", "2/3", "1/1"]

    def test_list_filtered_json(self, capsys):
        code, out = run(capsys, "farey", "list", "--q", "25", "--c", "1",
                        "--d", "5", "--format", "json")
        assert code == 0
        fr = json.loads(out)
        assert "7/16" in fr and "5/11" in fr and "10/21" in fr

    def test_tuples(self, capsys):
        code, out = run(capsys, "farey", "tuples", "--q", "25", "--c", "1",
                        "--d", "5", "--s", "2")
        assert code == 0
        rows = json.loads(out)
        assert {"q": [16, 11, 21], "r": [4, 6]} in rows

    def test_kseq_worked_example(self, capsys):
        code, out = run(capsys, "kseq", "--q", "25", "--pair", "16,25",
                        "--n", "9")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == [1, 5, 1, 4, 1, 3, 2, 2, 2]
        assert data["successors"] == [9, 20, 11, 24, 13, 15, 17, 19, 21]


class TestMosaicCommands:
    def test_enumerate_tile_schema(self, capsys, tmp_path):
        out_file = tmp_path / "tiles.json"
        code = main(["mosaic", "enumerate", "--c", "1", "--d", "5",
                     "--kernel", "3", "--max-order", "5",
                     "--out", str(out_file)])
        assert code == 0
        tiles = json.loads(out_file.read_text())
        assert len(tiles) == 7
        t3 = next(t for t in tiles if t["k"] == [3])
        assert t3["pattern"] == [2]
        assert t3["kernel"] == 3
        assert t3["residues"] == [4]
        assert ["1", "1"] in t3["vertices"]

    def test_table_markdown(self, capsys):
        code, out = run(capsys, "mosaic", "table", "--c", "1", "--d", "5",
                        "--kernels", "1..3", "--max-order", "10")
        assert code == 0
        assert "SQ_0[·]" in out and "| 2 | - |" in out

    def test_render_svg(self, capsys, tmp_path):
        out_file = tmp_path / "m.svg"
        code = main(["mosaic", "render", "--c", "1", "--d", "5",
                     "--kernel", "3", "--max-order", "5",
                     "--out", str(out_file)])
        assert code == 0
        svg = out_file.read_text()
        assert svg.startswith("<svg") and svg.count("<path") == 8

    def test_tree_dot(self, capsys):
        code, out = run(capsys, "mosaic", "tree", "--c", "1", "--d", "5",
                        "--kernel", "7", "--root", "2,2,3",
                        "--max-order", "12")
        assert code == 0
        assert out.startswith('graph "NP_3[2,2,3]"')
        assert '"2 2 3" -- "2 3 1 4";' in out

    def test_budget_exit_code(self, capsys):
        code, _ = run(capsys, "mosaic", "enumerate", "--c", "1", "--d", "5",
                      "--kernel-cap", "9", "--max-order", "12",
                      "--budget", "10")
        assert code == 3


class TestDensityCommands:
    def test_eval(self, capsys):
        code, out = run(capsys, "density", "eval", "--c", "1", "--d", "5",
                        "--x", "3/100", "--y", "93/100", "--max-order", "12",
                        "--kernel-cap", "60")
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "generic"
        assert data["value"] == pytest.approx(0.4)

    def test_empirical_and_compare(self, capsys, tmp_path):
        hist_file = tmp_path / "hist.json"
        code = main(["density", "empirical", "--q", "300", "--c", "1",
                     "--d", "5", "--bins", "12", "--out", str(hist_file)])
        assert code == 0
        hist = json.loads(hist_file.read_text())
        assert hist["q"] == 300 and len(hist["bins"]) == 12
        code, out = run(capsys, "density", "compare", "--hist",
                        str(hist_file), "--max-order", "8",
                        "--kernel-cap", "40")
        assert code == 0
        rep = json.loads(out)
        assert 0.9 < rep["theoretical_mass"] <= 1.0

    def test_support(self, capsys):
        code, out = run(capsys, "density", "support", "--q", "200",
                        "--c", "1", "--d", "5", "--max-order", "12",
                        "--kernel-cap", "60")
        assert code == 0
        assert json.loads(out) == {"violations": []}


class TestVerifyCommands:
    def test_cardinality(self, capsys):
        code, out = run(capsys, "verify", "cardinality", "--q", "500",
                        "--c", "1", "--d", "5", "--tolerance", "0.05")
        assert code == 0
        data = json.loads(out)
        assert data["relative_error"] < 0.05

    def test_cardinality_tolerance_violation(self, capsys):
        code, _ = run(capsys, "verify", "cardinality", "--q", "500",
                      "--c", "1", "--d", "5", "--tolerance", "1e-9")
        assert code == 2

    def test_lattice_explicit_polygon(self, capsys, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps(
            [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]))
        code, out = run(capsys, "verify", "lattice", "--poly",
                        str(poly_file), "--scale", "100", "--a", "0",
                        "--b", "0", "--d", "1")
        assert code == 0
        data = json.loads(out)
        assert data["all_within_bound"]
        assert data["cases"][0]["exact"] > 5000

    def test_lattice_random_sweep(self, capsys):
        code, out = run(capsys, "verify", "lattice", "--random", "8",
                        "--r-max", "400", "--seed", "11")
        assert code == 0
        assert json.loads(out)["all_within_bound"]

    def test_tables_pass_and_fail(self, capsys):
        code, out = run(capsys, "verify", "tables", "--c", "1", "--d", "5",
                        "--kernels", "1,3", "--max-order", "12")
        assert code == 0
        assert json.loads(out)["failures"] == []
        # a bound too small to finish SQ_1[3] must fail validation
        code, out = run(capsys, "verify", "tables", "--c", "1", "--d", "5",
                        "--kernels", "3", "--max-order", "3")
        assert code == 2


class TestMalformedArguments:
    @pytest.mark.parametrize("argv", [
        ["mosaic", "table", "--c", "1", "--d", "5", "--kernels", "1..x",
         "--max-order", "5"],
        ["kseq", "--q", "25", "--pair", "16", "--n", "3"],
        ["density", "eval", "--c", "1", "--d", "5", "--x", "abc",
         "--y", "1/2", "--max-order", "5"],
        ["density", "eval", "--c", "1", "--d", "5", "--x", "1/0",
         "--y", "1/2", "--max-order", "5"],
        ["mosaic", "render", "--c", "1", "--d", "5", "--kernel", "3",
         "--root", "2,x", "--max-order", "5"],
        ["farey", "list", "--q", "10", "--c", "1"],
        ["density", "compare", "--hist", "{missing}", "--max-order", "5"],
        ["density", "compare", "--hist", "{garbled}", "--max-order", "5"],
    ])
    def test_exit_2_without_traceback(self, capsys, tmp_path, argv):
        (tmp_path / "garbled.json").write_text('{"q": 3')
        argv = [a.format(missing=tmp_path / "missing.json",
                         garbled=tmp_path / "garbled.json") for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err
