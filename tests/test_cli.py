"""End-to-end tests for the command-line front end.

Each test drives main() with real files in a temp directory and checks
the exit code, the printed report, and any files the command writes.
Exit codes: 0 success, 1 validation failure, 2 parse error, 3 infeasible
target, 4 numerical failure.
"""

import hashlib
import json
import math
import warnings

import pytest

from rsmirnov import cli
from rsmirnov.blaschke_smirnov import QuadratureUnstable, RealSmirnov, integral_means
from rsmirnov.cli import main
from rsmirnov.complex_poly import Poly, poly_from_roots
from rsmirnov.fixtures import double_slit, fourth_power_map, koebe, power_chain
from rsmirnov.synthesis import endpoint_error
from rsmirnov.valence_tree import Interval, Node, Tree

INF = math.inf


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def edge_tree(lo, hi):
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1)], [("p1", "m1", Interval(lo, hi))]
    )


def two_one_edge():
    return Tree(
        [Node("p1", 1, 2), Node("m1", -1, 1)], [("p1", "m1", Interval(-1.0, 1.0))]
    )


def reference_tree():
    """Two-level welded example with valences (3, 9)."""
    return Tree(
        [Node("p1", 1, 2), Node("m1", -1, 5), Node("m2", -1, 2),
         Node("p2", 1, 1), Node("m3", -1, 1), Node("m4", -1, 1)],
        [("p1", "m1", Interval(0, 1)), ("p1", "m2", Interval(-3, 5)),
         ("m2", "p2", Interval(-3, 5)), ("p2", "m3", Interval(7, 8)),
         ("p2", "m4", Interval(9, 10))],
    )


def parallel_triple():
    return Tree(
        [Node("p1", 1, 1), Node("m1", -1, 2)],
        [("p1", "m1", Interval(-INF, 0.0))] * 3,
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_koebe(tmp_path, capsys):
    inp = write_json(tmp_path / "koebe.json", koebe().to_json())
    out = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"
    code = main(["analyze", inp, "--json", str(out), "--plot", str(svg)])
    assert code == 0
    text = capsys.readouterr().out
    assert "valences: 1 on C+, 1 on C-" in text
    assert "(-0.25, inf)" in text
    assert "crosscheck: ok" in text

    report = json.loads(out.read_text())
    assert report["valences"] == [1, 1]
    assert report["deficiency"] == [1, 1]
    assert len(report["tree"]["nodes"]) == 2
    assert report["crosscheck"]["ok"] is True
    # one bounded mean below the H^p threshold, one divergent above it
    rows = report["integral_means"]["rows"]
    assert rows[0]["p"] == pytest.approx(0.25)
    assert rows[0]["ratio"] < 3.0
    assert rows[1]["p"] == pytest.approx(0.75)
    assert rows[1]["ratio"] > 10.0
    assert svg.read_text().lstrip().startswith("<svg")


def test_analyze_fourth_power_map_prints_four_means(tmp_path, capsys):
    """Its 4-fold circle pole used to make the r = 0.9999 means raise, and
    both rows printed "unstable quadrature".  power_chain(6) read from its
    JSON used to exit 1: its 6-fold pole was counted as interior zeros."""
    for n, phi in ((4, fourth_power_map()), (6, power_chain(6))):
        inp = write_json(tmp_path / ("chain%d.json" % n), phi.to_json())
        out = tmp_path / ("report%d.json" % n)
        assert main(["analyze", inp, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "unstable quadrature" not in text
        assert text.count(", ratio = ") == 2
        rows = json.loads(out.read_text())["integral_means"]["rows"]
        assert [row["p"] for row in rows] == pytest.approx([0.5 / n, 1.5 / n])
        for row in rows:
            assert all(isinstance(row[k], float) and math.isfinite(row[k])
                       for k in ("inner", "outer", "ratio"))
        assert rows[0]["ratio"] < 3.0
        assert rows[1]["ratio"] > 10.0


def test_a_mean_that_does_not_settle_leaves_the_other_row_filled(monkeypatch):
    # a double pole at 0.99, on the inner circle: |phi|^(3/4) is not
    # integrable there, |phi|^(1/4) is.  Each radius is one
    # integral_means call for both exponents.
    phi = RealSmirnov(Poly([1.0]), poly_from_roots([0.99, 0.99]))
    calls = []
    means = cli.integral_means
    monkeypatch.setattr(cli, "integral_means",
                        lambda phi, p, r: calls.append((p, r)) or means(phi, p, r))
    rows = cli._means_rows(phi, 0)
    assert calls == [((0.25, 0.75), r) for r in cli.MEANS_RADII]
    monkeypatch.undo()
    inner, outer = (integral_means(phi, 0.25, r) for r in cli.MEANS_RADII)
    assert rows == [{"p": 0.25, "inner": inner, "outer": outer, "ratio": outer / inner},
                    {"p": 0.75, "inner": None, "outer": None, "ratio": None}]
    with pytest.raises(QuadratureUnstable, match="did not settle"):
        integral_means(phi, 0.75, cli.MEANS_RADII[0])


def test_analyze_double_slit_interval(tmp_path, capsys):
    inp = write_json(tmp_path / "ds.json", double_slit().to_json())
    assert main(["analyze", inp]) == 0
    text = capsys.readouterr().out
    assert "(-0.5, 0.5)" in text


def test_analyze_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(broken)]) == 2
    assert "parse error" in capsys.readouterr().err

    not_a_function = write_json(tmp_path / "nf.json", {"foo": 1})
    assert main(["analyze", not_a_function]) == 2

    assert main(["analyze", str(tmp_path / "missing.json")]) == 2


SLIT_DEN = [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]

#: a JSON integer of 401 digits, beyond the largest float (about 1.8e308)
HUGE = 10 ** 400


def assert_one_line_parse_error(err):
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("function", [
    {"num": ["0", "1j"], "den": ["1", "0", "-1"]},
    {"num": [0, [0, 1, 5]], "den": SLIT_DEN},
    {"num": [0, [0, True]], "den": SLIT_DEN},
    {"num": [0, [0, 1]], "den": [True, 0, -1]},
    {"num": [0, [0, 1]], "den": [1, 0, [-1]]},
    {"num": [0, [0, 1]], "den": [1, 0, None]},
    {"b1": {"zeros": [["0.5", 0]]}, "b2": {"zeros": [[-0.5, 0]]}},
    {"b1": {"zeros": [[0.5, 0, 0]]}, "b2": {"zeros": [[-0.5, 0]]}},
    {"b1": {"zeros": [[0.5, 0]], "constant": True},
     "b2": {"zeros": [[-0.5, 0]]}},
    {"b1": {"zeros": [[0.5, 0]], "constant": "1"},
     "b2": {"zeros": [[-0.5, 0]]}},
], ids=["strings", "three-entries", "boolean-entry", "boolean", "one-entry",
        "null", "string-zero", "three-entry-zero", "boolean-constant",
        "string-constant"])
def test_analyze_rejects_a_number_that_is_no_real_or_pair(tmp_path, capsys,
                                                          function):
    # complex() parsed the strings: the first analyzed as the double slit
    inp = write_json(tmp_path / "f.json", function)
    assert main(["analyze", inp, "--resolution", "64", "--samples", "5"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_analyze_rejects_an_integer_too_large_for_a_float(tmp_path, capsys):
    # complex() raised OverflowError: a traceback and exit 1
    inp = write_json(tmp_path / "f.json", {"num": [0, [0, HUGE]], "den": SLIT_DEN})
    assert main(["analyze", inp]) == 2
    assert_one_line_parse_error(capsys.readouterr().err)


def test_analyze_reads_real_numbers_and_pairs_alike(tmp_path, capsys):
    inp = write_json(tmp_path / "ds.json",
                     {"num": [0, [0, 1]], "den": [1, 0.0, [-1, 0]]})
    assert main(["analyze", inp]) == 0
    assert "(-0.5, 0.5)" in capsys.readouterr().out
    blaschke = write_json(tmp_path / "b.json",
                          {"b1": {"zeros": [0.5], "constant": 1},
                           "b2": {"zeros": [[-0.5, 0]], "constant": [1, 0]}})
    assert main(["analyze", blaschke, "--resolution", "64", "--samples", "5"]) == 0


def test_analyze_rejects_inner_pole(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json",
                     {"num": [[1.0, 0.0]], "den": [[-0.5, 0.0], [1.0, 0.0]]})
    assert main(["analyze", bad]) == 1
    assert "invalid function" in capsys.readouterr().err


def test_analyze_rejects_a_nan_coefficient(tmp_path, capsys):
    # used to exit 4: the NaN passed the boundary check and broke extraction
    bad = tmp_path / "nan.json"
    bad.write_text('{"num": [[NaN, 0], [1, 0]], "den": [[1, 0], [0.5, 0]]}',
                   encoding="utf-8")
    assert main(["analyze", str(bad)]) == 1
    assert "invalid function: coefficients must be finite" in capsys.readouterr().err
    bare = tmp_path / "bare.json"
    bare.write_text('{"num": [0, Infinity], "den": [1, 0.5]}', encoding="utf-8")
    assert main(["analyze", str(bare)]) == 1
    assert "invalid function: coefficients must be finite" in capsys.readouterr().err


def test_analyze_rejects_a_boundary_that_overflows(tmp_path, capsys):
    # (1 + z)/(1 + z/2) times 1e400 is not real on the circle; while the
    # 40-digit pole test scaled with N as well as D, every sample it saw
    # read as a circle pole, and analyze exited 4 after four warning lines
    big = write_json(tmp_path / "big.json",
                     {"num": [1e200, 1e200], "den": [1e-200, 5e-201]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", big]) == 1
    assert caught == []
    assert capsys.readouterr().err == (
        "invalid function: max |Im phi(e^it)| = inf at t = 0.012272\n")


@pytest.mark.parametrize("option", [
    ["--resolution", "0"],
    ["--resolution", "-8"],
    ["--resolution", "32", "--plot", "{tmp}/x.svg"],
    ["--resolution", "x"],
    ["--samples", "0"],
    ["--seed", "-5"],
], ids=["resolution-0", "resolution-negative", "resolution-32-plot",
        "resolution-text", "samples-0", "seed-negative"])
def test_analyze_rejects_options_below_their_floor(tmp_path, capsys, option):
    # a parse error before any work: no report is printed
    inp = write_json(tmp_path / "koebe.json", koebe().to_json())
    with pytest.raises(SystemExit) as exc:
        main(["analyze", inp, *(o.format(tmp=tmp_path) for o in option)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_analyze_rejects_two_constant_products(tmp_path, capsys):
    # B1 - B2 is a nonzero constant, which has no roots to check
    const = write_json(tmp_path / "const.json",
                       {"b1": {"zeros": [], "constant": [1.0, 0.0]},
                        "b2": {"zeros": [], "constant": [-1.0, 0.0]}})
    assert main(["analyze", const]) == 1
    assert "invalid function" in capsys.readouterr().err


def test_analyze_rejects_an_unknown_blaschke_key(tmp_path, capsys):
    # the constant's key is "constant": reading "c" as absent would analyse
    # the product with constant 1, a different function
    bad = write_json(tmp_path / "c.json",
                     {"b1": {"zeros": [[0.5, 0.0]], "c": [-1.0, 0.0]},
                      "b2": {"zeros": [[-0.5, 0.0]]}})
    assert main(["analyze", bad]) == 2
    assert "unknown Blaschke key(s) c" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "{koebe}", "--plot", "{tmp}/nodir/x.svg"],
    ["analyze", "{koebe}", "--json", "{tmp}/nodir/x.json"],
    ["enumerate", "1", "1", "--json", "{tmp}/nodir/x.json"],
    ["synthesize", "{edge}", "--out", "{tmp}/nodir/x.json"],
], ids=["analyze-plot", "analyze-json", "enumerate-json", "synthesize-out"])
def test_an_output_file_in_a_missing_directory_is_rejected_before_any_work(
        tmp_path, capsys, command):
    # each printed its whole output, then a FileNotFoundError traceback
    names = {"tmp": tmp_path,
             "koebe": write_json(tmp_path / "koebe.json", koebe().to_json()),
             "edge": write_json(tmp_path / "edge.json", edge_tree(0.0, 1.0).to_json())}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in command])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "directory does not exist" in captured.err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command,message", [
    (["analyze", "{koebe}", "--plot", "{tmp}/adir"], "it is a directory"),
    (["analyze", "{koebe}", "--json", "{tmp}/adir"], "it is a directory"),
    (["enumerate", "1", "1", "--json", "{tmp}/adir"], "it is a directory"),
    (["synthesize", "{edge}", "--out", "{tmp}/adir"], "it is a directory"),
    (["enumerate", "1", "1", "--dot", "{tmp}/afile"],
     "it exists and is not a directory"),
    (["analyze", "{koebe}", "--plot", "{tmp}/out/"], "it ends in a path separator"),
    (["analyze", "{koebe}", "--json", "{tmp}/out/"], "it ends in a path separator"),
    (["enumerate", "1", "1", "--json", "{tmp}/out/"], "it ends in a path separator"),
    (["synthesize", "{edge}", "--out", "{tmp}/out/"], "it ends in a path separator"),
    (["enumerate", "1", "1", "--dot", "{tmp}/afile/sub"],
     "afile exists and is not a directory"),
], ids=["analyze-plot", "analyze-json", "enumerate-json", "synthesize-out",
        "enumerate-dot", "analyze-plot-separator", "analyze-json-separator",
        "enumerate-json-separator", "synthesize-out-separator",
        "enumerate-dot-under-a-file"])
def test_an_output_path_of_the_wrong_kind_is_rejected_before_any_work(
        tmp_path, capsys, command, message):
    # each printed its whole output, then an IsADirectoryError (a file
    # output), FileExistsError (--dot) or NotADirectoryError (--dot under
    # a file) traceback; --plot and --out to "out/" wrote a file "out"
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    names = {"tmp": tmp_path,
             "koebe": write_json(tmp_path / "koebe.json", koebe().to_json()),
             "edge": write_json(tmp_path / "edge.json", edge_tree(0.0, 1.0).to_json())}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in command])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list((tmp_path / "adir").iterdir()) == []
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "adir", "afile", "edge.json", "koebe.json"]


def test_an_existing_output_file_is_overwritten(tmp_path, capsys):
    out = tmp_path / "shapes.json"
    out.write_text("old", encoding="utf-8")
    assert main(["enumerate", "1", "1", "--json", str(out)]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vp,vm,count", [(1, 1, 1), (2, 1, 2), (2, 3, 8)])
def test_enumerate_counts(tmp_path, capsys, vp, vm, count):
    out = tmp_path / "shapes.json"
    assert main(["enumerate", str(vp), str(vm), "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("%d shape(s) for valences (%d, %d)" % (count, vp, vm))
    assert len(json.loads(out.read_text())) == count


def test_enumerate_writes_dot_files(tmp_path, capsys):
    dot_dir = tmp_path / "dots"
    assert main(["enumerate", "2", "1", "--dot", str(dot_dir)]) == 0
    capsys.readouterr()
    files = sorted(dot_dir.glob("shape_*.dot"))
    assert len(files) == 2
    assert "graph valence_tree" in files[0].read_text()


@pytest.mark.parametrize("vp,vm,json_sha,out_sha", [
    (2, 3, "512a35714ea147a7", "b1e728c670e28af4"),
    (3, 3, "b4a47ff669a5dde9", "ccdae43d42b26435"),
    (4, 4, "7068cbd8a97c5066", "112612b4899cde8a"),
])
def test_enumerate_catalogs_are_pinned(tmp_path, capsys, vp, vm, json_sha,
                                       out_sha):
    # sha256 prefixes of the --json file and of stdout: the representatives,
    # node names, edge names and constraint text all stay as they are
    out = tmp_path / "shapes.json"
    assert main(["enumerate", str(vp), str(vm), "--json", str(out)]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == json_sha
    assert hashlib.sha256(printed).hexdigest()[:16] == out_sha


def test_enumerate_cap(capsys):
    assert main(["enumerate", "7", "1"]) == 1
    assert "capped" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate-tree
# ---------------------------------------------------------------------------


def test_validate_tree_accepts_reference(tmp_path, capsys):
    inp = write_json(tmp_path / "ref.json", reference_tree().to_json())
    assert main(["validate-tree", inp]) == 0
    assert "valid" in capsys.readouterr().out


def test_main_builds_one_parser_and_calls_the_current_command(tmp_path,
                                                             monkeypatch):
    # the parser is built once, and main looks the command up when it
    # runs, so a command replaced after the first call is the one called
    inp = write_json(tmp_path / "t.json", reference_tree().to_json())
    assert main(["validate-tree", inp]) == 0
    assert cli._parser() is cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_validate_tree",
                        lambda args: seen.append(args.input) or 7)
    assert main(["validate-tree", inp]) == 7
    assert seen == [inp]


@pytest.mark.parametrize("interval", [["0", "1e0"], ["0", "Infinity"]])
def test_validate_tree_rejects_a_numeric_string_endpoint(tmp_path, capsys,
                                                          interval):
    # both used to validate, as (0, 1) and (0, inf)
    data = edge_tree(0.0, 1.0).to_json()
    data["edges"][0]["interval"] = interval
    assert main(["validate-tree", write_json(tmp_path / "t.json", data)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_tree_reads_the_inf_strings(tmp_path, capsys):
    data = edge_tree(0.0, 1.0).to_json()
    data["edges"][0]["interval"] = ["-inf", 0]
    assert main(["validate-tree", write_json(tmp_path / "t.json", data)]) == 0
    assert capsys.readouterr().out.startswith("valid")


def test_validate_tree_rejects_full_line_edge(tmp_path, capsys):
    inp = write_json(tmp_path / "line.json", edge_tree(-INF, INF).to_json())
    assert main(["validate-tree", inp]) == 1
    assert "free-interval" in capsys.readouterr().out


def test_validate_tree_reports_packing_witness(tmp_path, capsys):
    inp = write_json(tmp_path / "par3.json", parallel_triple().to_json())
    assert main(["validate-tree", inp]) == 1
    text = capsys.readouterr().out
    assert "packing" in text and "x = " in text


def test_validate_tree_parse_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("[1, 2", encoding="utf-8")
    assert main(["validate-tree", str(broken)]) == 2
    not_a_tree = write_json(tmp_path / "nt.json", {"nodes": "x"})
    assert main(["validate-tree", not_a_tree]) == 2


@pytest.mark.parametrize("field,value", [
    ("sign", True), ("sign", 1.0), ("sign", -1.0), ("interval", [True, 2])])
def test_validate_tree_rejects_a_boolean_or_float_sign_and_boolean_endpoint(
        tmp_path, capsys, field, value):
    data = two_one_edge().to_json()
    if field == "sign":
        data["nodes"][0]["sign"] = value
    else:
        data["edges"][0]["interval"] = value
    assert main(["validate-tree", write_json(tmp_path / "t.json", data)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("valence", [2.7, True, "2", " 2 "])
def test_validate_tree_rejects_a_non_integer_valence(tmp_path, capsys, valence):
    data = two_one_edge().to_json()
    data["nodes"][0]["valence"] = valence
    assert main(["validate-tree", write_json(tmp_path / "t.json", data)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["interval", "valence"])
def test_validate_tree_rejects_an_integer_too_large_for_a_float(
        tmp_path, capsys, field):
    # float() raised OverflowError: a traceback and exit 1
    data = two_one_edge().to_json()
    if field == "interval":
        data["edges"][0]["interval"] = [-1, HUGE]
    else:
        data["nodes"][0]["valence"] = HUGE
    assert main(["validate-tree", write_json(tmp_path / "t.json", data)]) == 2
    assert_one_line_parse_error(capsys.readouterr().err)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_catalog_roundtrip(tmp_path, capsys):
    target = edge_tree(0.0, 1.0)
    inp = write_json(tmp_path / "edge.json", target.to_json())
    out = tmp_path / "candidate.json"
    assert main(["synthesize", inp, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    result = json.loads(printed)
    assert result["status"] == "exact"
    assert result["catalog"]["name"] == "double-slit-edge"
    assert result["notes"] == []
    assert json.loads(out.read_text()) == result

    # analyze accepts the synthesize output and reproduces the target tree
    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "--json", str(report)]) == 0
    capsys.readouterr()
    extracted = Tree.from_json(json.loads(report.read_text())["tree"])
    assert endpoint_error(extracted, target) < 1e-6


def test_synthesize_search_roundtrip(tmp_path, capsys):
    target = two_one_edge()
    inp = write_json(tmp_path / "tii.json", target.to_json())
    out = tmp_path / "candidate.json"
    assert main(["synthesize", inp, "--seed", "1", "--budget", "8000",
                 "--restarts", "1", "--out", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "exact"
    assert "catalog" not in result
    assert any("NotInCatalog" in note for note in result["notes"])
    # the uncapped seed-1 solve, pinned as test_synthesis pins seed 0's
    assert result["evaluations"] == 3929

    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "--json", str(report)]) == 0
    capsys.readouterr()
    extracted = Tree.from_json(json.loads(report.read_text())["tree"])
    assert endpoint_error(extracted, target) < 1e-2


def test_synthesize_infeasible_exit_code(tmp_path, capsys):
    inp = write_json(tmp_path / "par3.json", parallel_triple().to_json())
    assert main(["synthesize", inp]) == 3
    err = capsys.readouterr().err
    assert "infeasible" in err and "packing" in err


def test_synthesize_rejects_an_integer_too_large_for_a_float(tmp_path, capsys):
    data = edge_tree(0.0, 1.0).to_json()
    data["edges"][0]["interval"] = [0, HUGE]
    assert main(["synthesize", write_json(tmp_path / "t.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line_parse_error(captured.err)


@pytest.mark.parametrize("option", [
    ["--seed", "-3"],
    ["--budget", "-5"],
    ["--restarts", "0"],
    ["--restarts", "-1"],
], ids=["seed-negative", "budget-negative", "restarts-0", "restarts-negative"])
def test_synthesize_rejects_options_below_their_floor(tmp_path, capsys, option):
    # a parse error before any work: no result is printed
    inp = write_json(tmp_path / "tii.json", two_one_edge().to_json())
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", inp, *option])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_synthesize_rejects_a_tol_that_is_no_finite_number_above_zero(
        tmp_path, capsys, tol):
    # nan and -1 used to end every search "approximate", with exit 0
    inp = write_json(tmp_path / "tii.json", two_one_edge().to_json())
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", inp, "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite number above 0" in captured.err


def test_synthesize_budget_zero_records_failure(tmp_path, capsys):
    # the reference tree is neither in the catalog nor within the search
    # degree cap, so a zero-budget run must still report cleanly
    inp = write_json(tmp_path / "ref.json", reference_tree().to_json())
    assert main(["synthesize", inp, "--budget", "0"]) == 4
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "failed"
    assert result["candidate"] is None
    assert any("NotInCatalog" in note for note in result["notes"])


def test_synthesize_a_huge_single_valence_fails_cleanly(tmp_path, capsys):
    # valence 1e300 passes validate-tree; the catalog used to build its
    # node and die with an OverflowError traceback (exit 1)
    data = {"nodes": [{"id": "p1", "sign": "+", "valence": 1e300}], "edges": []}
    inp = write_json(tmp_path / "huge.json", data)
    assert main(["validate-tree", inp]) == 0
    capsys.readouterr()
    assert main(["synthesize", inp]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    result = json.loads(captured.out)
    assert result["status"] == "failed" and result["candidate"] is None
    assert [note.split(":")[0] for note in result["notes"]] == [
        "NotInCatalog", "search unavailable"]


def test_synthesize_budget_exhaustion_is_recorded(tmp_path, capsys):
    path3 = Tree(
        [Node("p1", 1, 1), Node("m1", -1, 1), Node("p2", 1, 1)],
        [("p1", "m1", Interval(-INF, 0.0)), ("m1", "p2", Interval(0.0, INF))],
    )
    inp = write_json(tmp_path / "path3.json", path3.to_json())
    assert main(["synthesize", inp, "--budget", "0"]) == 4
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "failed"
    assert any("BudgetExhausted" in note for note in result["notes"])


def test_synthesize_output_is_byte_stable(tmp_path, capsys):
    inp = write_json(tmp_path / "edge.json", edge_tree(-1.0, 1.0).to_json())
    assert main(["synthesize", inp, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["synthesize", inp, "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
