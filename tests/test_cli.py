from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

from clk.cli import main

from helpers import (
    child_env,
    large_graph_doc,
    presentation_of,
    rose_doc,
    toeplitz_doc,
    two_block_doc,
)


@pytest.fixture()
def toeplitz_path(tmp_path):
    path = tmp_path / "toeplitz.json"
    path.write_text(json.dumps(toeplitz_doc()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def l25_path(tmp_path):
    path = tmp_path / "l25.json"
    path.write_text(json.dumps(two_block_doc(2, 5)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def l24_path(tmp_path):
    path = tmp_path / "l24.json"
    path.write_text(json.dumps(two_block_doc(2, 4)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_exit_codes_and_text(capsys, toeplitz_path, l25_path):
    code, out = run(capsys, ["check", toeplitz_path])
    assert code == 0
    assert "IBN: yes" in out
    assert "qspan-excluded" in out

    code, out = run(capsys, ["check", l25_path])
    assert code == 3
    assert "IBN: no; type (1,2)" in out
    assert "qspan-member" in out


def test_check_json(capsys, l25_path):
    code, out = run(capsys, ["check", l25_path, "--json"])
    assert code == 3
    data = json.loads(out)
    assert data["ibn"] is False
    assert data["type"] == [1, 2]
    assert data["certificate"]["coefficients"] == ["2", "-1"]


def test_parse_error_exit_4(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["check", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "syntax error" in err
    assert main(["check", str(tmp_path / "missing.json")]) == 4


def test_deeply_nested_document_exit_4(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200_000)
    assert main(["check", str(deep)]) == 4
    assert "nested too deeply" in capsys.readouterr().err


def test_check_runs_one_span_test_per_call(capsys, monkeypatch, l25_path):
    import clk.cli
    import clk.ktheory

    calls = []
    original = clk.ktheory.ibn_of_algebra

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(clk.cli, "ibn_of_algebra", counting)
    monkeypatch.setattr(clk.ktheory, "ibn_of_algebra", counting)
    code, out = run(capsys, ["check", l25_path])
    assert code == 3
    assert "IBN: no; type (1,2)" in out
    assert len(calls) == 1


def _count_factorizations(monkeypatch) -> list:
    """Count Smith forms wherever clk looks ``smith_normal_form`` up."""
    import clk.linalg
    import clk.presentation

    calls = []
    original = clk.linalg.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(clk.presentation, "smith_normal_form", counting)
    monkeypatch.setattr(clk.linalg, "smith_normal_form", counting)
    return calls


def test_one_factorization_per_call(capsys, monkeypatch, l25_path, l24_path):
    calls = _count_factorizations(monkeypatch)
    cases = [
        (["k0", l25_path, "--element", "1,-1"], 0, "[v + -1·w] has order 3", 1),
        (["corner", l25_path, "--vertices", "w"], 3, "corner {w}: non-IBN of type (2,5)", 1),
        (["type", l24_path], 3, "type: torsion of type (1,3), witness of 8 steps", 1),
        (["check", l25_path], 3, "IBN: no; type (1,2)", 1),
        (["info", l25_path], 0, "  Y: v = 5·w", 0),
        (["monoid", l25_path], 0, "generators: v, w", 0),
    ]
    for argv, code, line, factorizations in cases:
        calls.clear()
        got, out = run(capsys, argv)
        assert (got, line in out.splitlines()) == (code, True), (argv, out)
        assert len(calls) == factorizations, argv


def test_render_components_builds_the_diagram_once(capsys, monkeypatch, toeplitz_path):
    import clk.diagrams
    from clk import Window, build_diagram, render_dot, render_svg, window_components

    p = presentation_of(toeplitz_doc())
    w = Window((0, 4), (0, 4))
    expected = {
        "svg": render_svg(build_diagram(p, w), window_components(p, w)),
        "dot": render_dot(build_diagram(p, w), window_components(p, w)),
    }
    calls = []

    def counting(p, w):
        calls.append(w)
        return build_diagram(p, w)

    monkeypatch.setattr(clk.diagrams, "build_diagram", counting)
    for fmt, document in expected.items():
        calls.clear()
        argv = ["render", toeplitz_path, "--window", "0:4,0:4", "--components"]
        assert run(capsys, argv + ["--format", fmt]) == (0, document)
        assert calls == [w], fmt


def test_info_builds_the_lambda_set_once(capsys, monkeypatch, tmp_path):
    import clk.graphs

    builds = []

    def counting(items=()):
        builds.append(1)
        return frozenset(items)

    # The set is built through the name ``frozenset`` in clk.graphs.
    monkeypatch.setattr(clk.graphs, "frozenset", counting, raising=False)
    path = tmp_path / "separated.json"
    doc = large_graph_doc(random.Random(3), 300, "separated")
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, ["info", str(path)])
    assert code == 0
    assert out.count(" ∈ Λ") == len(doc["lambda"]) > 100
    assert len(builds) == 1


def test_json_prints_build_no_dense_relation_sides(capsys, monkeypatch, tmp_path):
    import clk.cli
    import clk.presentation
    from clk.graphs import graph_to_data
    from clk.presentation import Relation, presentation_to_data

    doc = large_graph_doc(random.Random(3), 40, "separated")
    path = tmp_path / "separated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    p = presentation_of(doc)
    info = {"graph": graph_to_data(p.graph), "presentation": presentation_to_data(p)}
    expected = {
        command: json.dumps(data, separators=(",", ":"), ensure_ascii=False) + "\n"
        for command, data in (("monoid", info["presentation"]), ("info", info))
    }
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    to_data = counting("presentation_to_data", presentation_to_data)
    monkeypatch.setattr(clk.presentation, "presentation_to_data", to_data)
    monkeypatch.setattr(clk.cli, "presentation_to_data", to_data, raising=False)
    for name in ("lhs", "rhs", "row"):
        view = counting(name, getattr(Relation, name).fget)
        monkeypatch.setattr(Relation, name, property(view))
    for command, stdout in expected.items():
        assert run(capsys, [command, str(path), "--json"]) == (0, stdout)
    assert calls == []


def test_render_window_over_node_cap_exit_4(capsys, toeplitz_path):
    start = time.perf_counter()
    code = main(["render", toeplitz_path, "--window", "0:100000,0:100000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: window has 10000200001 lattice points")
    assert elapsed < 1.0


@pytest.mark.parametrize("bad", ["1_0", "١", "１", "²"])
def test_integers_outside_ascii_decimal_exit_4(capsys, toeplitz_path, bad):
    vector, window = "error: malformed vector", "error: --window wants"
    argvs = [
        (["monoid", toeplitz_path, "--class", f"{bad},0"], vector),
        (["k0", toeplitz_path, "--element", f"0,{bad}"], vector),
        (["render", toeplitz_path, "--window", f"0:{bad},0:4"], window),
        (["render", toeplitz_path, "--window", f"0:4,{bad}:9"], window),
    ]
    for argv, message in argvs:
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message), argv
    code, _ = run(capsys, ["render", toeplitz_path, "--window", " 0 : +1 ,0:1"])
    assert code == 0


def test_k0_json_matches_schema(capsys, l25_path, toeplitz_path, tmp_path):
    code, out = run(capsys, ["k0", l25_path, "--json"])
    assert code == 0
    assert out.strip() == '{"free_rank":0,"invariant_factors":[3],"unit_order":{"finite":1}}'

    code, out = run(capsys, ["k0", toeplitz_path])
    assert code == 0
    assert "K₀ ≅ ℤ; [L] has infinite order" in out

    edgeless = tmp_path / "edgeless3.json"
    edgeless.write_text(
        json.dumps({"vertices": ["a", "b", "c"], "edges": []}), encoding="utf-8"
    )
    code, out = run(capsys, ["k0", str(edgeless)])
    assert "K₀ ≅ ℤ³" in out


def test_k0_element_order(capsys, toeplitz_path):
    code, out = run(capsys, ["k0", toeplitz_path, "--element", "0,1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["element_order"] == {"finite": 1}


def test_type_command(capsys, toeplitz_path, l25_path):
    code, out = run(capsys, ["type", toeplitz_path])
    assert code == 0
    assert "qspan-excluded" in out
    code, out = run(capsys, ["type", l25_path, "--json"])
    assert code == 3
    data = json.loads(out)
    assert (data["m"], data["n"]) == (1, 2)


def test_corner_exit_codes(capsys, toeplitz_path, l24_path, l25_path):
    code, out = run(capsys, ["corner", toeplitz_path, "--vertices", "w"])
    assert code == 0
    assert "isolated-support" in out
    assert "sufficient test: inconclusive" in out

    code, out = run(capsys, ["corner", l24_path, "--vertices", "v"])
    assert code == 3
    assert "type (1,2)" in out

    code, out = run(
        capsys, ["corner", l25_path, "--vertices", "w", "--max-multiple", "1"]
    )
    assert code == 5

    assert main(["corner", toeplitz_path, "--vertices", "zz"]) == 4
    capsys.readouterr()


def test_monoid_queries(capsys, toeplitz_path, l25_path):
    code, out = run(capsys, ["monoid", toeplitz_path, "--eq", "1,0|1,3", "--witness"])
    assert code == 0
    assert "equivalent (3 steps)" in out
    assert out.count("forward") == 3

    code, out = run(capsys, ["monoid", toeplitz_path, "--eq", "0,1|0,2"])
    assert code == 3
    assert "complete-class-excludes" in out

    code, out = run(capsys, ["monoid", l25_path, "--progenerator", "0,1"])
    assert code == 0
    assert "progenerator: yes" in out

    code, out = run(capsys, ["monoid", l25_path, "--closure", "1,0|0,1", "--json"])
    assert code == 0
    assert json.loads(out) == {"status": "yes", "multiple": 1, "dominating": [0, 2]}

    code, out = run(capsys, ["monoid", toeplitz_path, "--class", "0,1", "--json"])
    assert code == 0
    assert json.loads(out) == {"complete": True, "visited": 1, "members": [[0, 1]]}

    # malformed vectors are input errors
    assert main(["monoid", toeplitz_path, "--eq", "1,0|1"]) == 4
    assert main(["monoid", toeplitz_path, "--eq", "1,x|1,0"]) == 4
    capsys.readouterr()


def test_monoid_without_query_prints_presentation(capsys, toeplitz_path):
    code, out = run(capsys, ["monoid", toeplitz_path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["v", "w"]
    assert data["relations"][0]["in_lambda"] is True


def test_render_and_info(capsys, toeplitz_path, tmp_path):
    code, out = run(
        capsys, ["render", toeplitz_path, "--window", "0:4,0:4", "--format", "svg"]
    )
    assert code == 0
    assert out.startswith("<?xml")

    target = tmp_path / "out.dot"
    code, _ = run(
        capsys,
        ["render", toeplitz_path, "--format", "dot", "--output", str(target)],
    )
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("graph lattice_window")

    # component coloring needs the natural domain
    assert (
        main(["render", toeplitz_path, "--domain", "z", "--components"]) == 4
    )
    capsys.readouterr()

    code, out = run(capsys, ["info", toeplitz_path])
    assert code == 0
    assert "E: v = v + w" in out


def test_stdin_input(capsys, monkeypatch):
    import io

    doc = json.dumps(toeplitz_doc()).encode()
    monkeypatch.setattr(
        sys, "stdin", type("S", (), {"buffer": io.BytesIO(doc)})()
    )
    code, out = run(capsys, ["check", "-"])
    assert code == 0
    assert "IBN: yes" in out


def test_rose_family_via_cli(capsys, tmp_path):
    for n in (2, 5):
        path = tmp_path / f"rose{n}.json"
        path.write_text(json.dumps(rose_doc(n)), encoding="utf-8")
        code, out = run(capsys, ["check", str(path)])
        assert code == 3
        assert f"type (1,{n})" in out


def test_byte_identical_output_across_processes(tmp_path):
    path = tmp_path / "l25.json"
    path.write_text(json.dumps(two_block_doc(2, 5)), encoding="utf-8")
    cmd = [
        sys.executable,
        "-m",
        "clk",
        "corner",
        str(path),
        "--vertices",
        "w",
        "--json",
    ]
    env = child_env()
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == second.returncode == 3, (first.stderr, second.stderr)
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["verdict"] == {"kind": "non-ibn", "type": [2, 5]}


def test_lone_surrogate_name_exits_4(capsys, monkeypatch):
    import io

    doc = b'{"vertices": ["\\ud800"], "edges": []}'
    for argv in (["info", "-"], ["info", "-", "--json"], ["monoid", "-", "--json"]):
        stdin = type("S", (), {"buffer": io.BytesIO(doc)})()
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertices entry '\\ud800' is not valid UTF-8\n"
    child = subprocess.run(
        [sys.executable, "-m", "clk", "info", "-"],
        input=doc,
        capture_output=True,
        env=child_env(),
    )
    assert (child.returncode, child.stdout) == (4, b""), child.stderr
    assert child.stderr == b"error: vertices entry '\\ud800' is not valid UTF-8\n"


def test_json_parseable_for_every_non_error_exit(capsys, toeplitz_path, l25_path):
    invocations = [
        (["check", toeplitz_path], 0),
        (["check", l25_path], 3),
        (["k0", l25_path], 0),
        (["type", toeplitz_path], 0),
        (["type", l25_path], 3),
        (["corner", toeplitz_path, "--vertices", "w"], 0),
        (["corner", l25_path, "--vertices", "w"], 3),
        (["corner", l25_path, "--vertices", "w", "--max-multiple", "1"], 5),
        (["monoid", toeplitz_path, "--eq", "1,0|1,3"], 0),
        (["monoid", toeplitz_path, "--eq", "0,1|0,2"], 3),
        (["monoid", toeplitz_path, "--eq", "1,0|1,50", "--max-states", "5"], 5),
        (["monoid", l25_path], 0),
        (["info", toeplitz_path], 0),
    ]
    for argv, expected in invocations:
        code, out = run(capsys, argv + ["--json"])
        assert code == expected, argv
        json.loads(out)  # schema-stable and parseable


def test_color_env_var(capsys, toeplitz_path, monkeypatch):
    # non-tty stdout: no escapes either way, but "never" must also hold
    monkeypatch.setenv("CLK_COLOR", "never")
    _, out = run(capsys, ["check", toeplitz_path])
    assert "\x1b[" not in out
