"""End-to-end command-line checks: output formats, pipelines, exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import steklov
from steklov import (
    GraphDocument,
    gen_torus,
    graph_to_document,
    parse_document,
    serialize_document,
    tetrahedron,
    octahedron,
)
from steklov.cli import cli, entry


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(serialize_document(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    return write_doc(tmp_path, "k2.json",
                     GraphDocument(n=2, edges=((0, 1),), boundary=(0, 1)))


@pytest.fixture
def p3_file(tmp_path):
    return write_doc(tmp_path, "p3.json",
                     GraphDocument(n=3, edges=((0, 1), (1, 2)), boundary=(0, 2)))


@pytest.fixture
def tetra_file(tmp_path):
    return write_doc(tmp_path, "tetra.json", graph_to_document(tetrahedron()))


def test_spectrum_whole_line(k2_file, capsys):
    assert cli(["spectrum", k2_file]) == 0
    assert capsys.readouterr().out == "0 2\n"


def test_spectrum_single_eigenvalue(k2_file, capsys):
    assert cli(["spectrum", k2_file, "--k", "2"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dtn_rows(p3_file, capsys):
    assert cli(["dtn", p3_file]) == 0
    rows = [[float(x) for x in line.split()]
            for line in capsys.readouterr().out.strip().split("\n")]
    assert rows == [[0.5, -0.5], [-0.5, 0.5]]


def test_resist_output(p3_file, capsys):
    assert cli(["resist", p3_file, "--u", "0", "--v", "2"]) == 0
    r, disc = capsys.readouterr().out.split()
    assert float(r) == pytest.approx(2.0, abs=1e-9)
    assert float(disc) <= 1e-9


def test_resist_prints_the_agreement_tolerance(tmp_path, capsys):
    # the second column is the tolerance the routes met, not their roundoff
    path = write_doc(tmp_path, "torus.json", graph_to_document(gen_torus(10, 10)))
    for u, v in ((0, 1), (17, 55), (3, 98), (42, 57), (99, 0)):
        assert cli(["resist", path, "--u", str(u), "--v", str(v)]) == 0
        assert capsys.readouterr().out.split()[1] == "1e-09"


def test_gen_then_spectrum_pipeline(tmp_path, capsys):
    out = str(tmp_path / "t33.json")
    assert cli(["gen", "torus", "3", "3", "-o", out]) == 0
    assert capsys.readouterr().out == f"wrote {out} (9 vertices, 27 edges)\n"

    doc = parse_document((tmp_path / "t33.json").read_text())
    assert doc.meta == {"family": "torus", "params": [3, 3],
                        "genus": 1, "max_degree": 6}

    assert cli(["spectrum", out]) == 0
    values = [float(x) for x in capsys.readouterr().out.split()]
    assert values == pytest.approx([0, 6, 6, 6, 6, 6, 6, 9, 9], abs=1e-9)


def test_gen_is_reproducible(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli(["gen", "sphere", "1", "-o", a]) == 0
    assert cli(["gen", "sphere", "1", "-o", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_subdivide_emits_parseable_json(tetra_file, capsys):
    assert cli(["subdivide", tetra_file, "--k", "1"]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.n == 10
    assert doc.meta["level"] == 1
    assert doc.meta["boundary_growth"] == pytest.approx(0.625, abs=1e-12)
    assert doc.rotation is not None


def test_immerse_summary(tmp_path, capsys):
    octa = write_doc(tmp_path, "octa.json", graph_to_document(octahedron()))
    assert cli(["immerse", octa, "--k", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    m = re.fullmatch(
        r"xi (\d+) ell (\d+) host_n (\d+) lambda2 (\S+) bound (\S+)\n", out)
    assert m is not None
    assert float(m.group(4)) <= float(m.group(5)) + 1e-8


def test_pack_with_figure(tetra_file, tmp_path, capsys):
    svg = tmp_path / "pack.svg"
    assert cli(["pack", tetra_file, "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 4 residual ")
    assert svg.read_text().startswith("<svg")
    assert svg.read_text().count("<circle") == 4


def test_certify_planar_report(tetra_file, capsys):
    assert cli(["certify-planar", tetra_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    keys = [line.split()[0] for line in lines]
    assert keys == ["lambda2", "geometric_bound", "degree_bound", "product",
                    "boundary_size", "max_degree", "within_degree_bound",
                    "packing_residual", "centroid_norm"]
    report = dict(line.split(None, 1) for line in lines)
    assert float(report["lambda2"]) == pytest.approx(4.0, abs=1e-9)
    assert report["within_degree_bound"] == "True"
    assert float(report["degree_bound"]) == pytest.approx(6.0, abs=1e-12)


def test_sweep_stdout_matches_csv_file(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    rc = cli(["sweep", "--gmax", "2", "--res", "4",
              "--csv", str(csv_path), "--svg", str(svg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == csv_path.read_text()
    assert out.startswith("family,g,D,boundary_size,lambda2,product,product_over_g\n")
    assert len(out.strip().split("\n")) == 3
    assert svg_path.read_text().startswith("<svg")


def test_usage_errors_exit_one(capsys):
    assert cli([]) == 1
    assert cli(["spectrum"]) == 1
    assert cli(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out


def test_domain_errors_exit_one(tmp_path, p3_file, capsys):
    assert cli(["spectrum", str(tmp_path / "missing.json")]) == 1
    assert "error: cannot read" in capsys.readouterr().err

    assert cli(["resist", p3_file, "--u", "1", "--v", "1"]) == 1
    assert cli(["spectrum", p3_file, "--k", "99"]) == 1
    assert cli(["subdivide", p3_file, "--k", "1"]) == 1  # no rotation in file
    assert "needs an embedding" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli(["spectrum", str(bad)]) == 1

    assert cli(["gen", "bogus", "-o", str(tmp_path / "x.json")]) == 1
    assert "unknown family" in capsys.readouterr().err
    assert cli(["gen", "torus", "3", "-o", str(tmp_path / "x.json")]) == 1
    assert "takes parameters" in capsys.readouterr().err

    octa = write_doc(tmp_path, "octa.json", graph_to_document(octahedron()))
    assert cli(["immerse", octa, "--k", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed:")
    assert cli(["sweep", "--policy", "random-fraction:0.5:-3"]) == 1
    assert capsys.readouterr().err.startswith("error: seed:")


@pytest.mark.parametrize("argv", [
    ["gen", "octahedron", "-o", "{missing}/g.json"],
    ["pack", "{tetra}", "--svg", "{missing}/p.svg"],
    ["sweep", "--gmax", "1", "--res", "3", "--csv", "{missing}/s.csv"],
    ["sweep", "--gmax", "1", "--res", "3", "--svg", "{missing}/s.svg"],
], ids=["gen", "pack", "sweep_csv", "sweep_svg"])
def test_unwritable_output_exits_one(argv, tmp_path, tetra_file, capsys):
    missing = tmp_path / "no-such-dir"
    argv = [a.format(missing=missing, tetra=tetra_file) for a in argv]
    assert cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}/")
    assert not missing.exists()


def test_triangle_sphere_is_refused_by_its_faces(tmp_path, capsys):
    k3 = write_doc(tmp_path, "k3.json", GraphDocument(
        n=3, edges=((0, 1), (0, 2), (1, 2)), boundary=(0,), rotation=((1, 2), (2, 0), (0, 1))))
    for argv in (["subdivide", k3, "--k", "1"], ["immerse", k3, "--k", "1", "--seed", "0"]):
        assert cli(argv) == 1
        assert capsys.readouterr().err == (
            "error: hexagon subdivision requires faces on distinct vertex triples, but "
            "faces 0 (0, 1, 2) and 1 (0, 2, 1) both span vertices 0, 1, 2\n")


def test_convergence_failures_exit_two(tmp_path, capsys):
    rg = tetrahedron()
    doc = GraphDocument(n=4, edges=rg.edges, boundary=(0,), rotation=rg.rotation)
    path = write_doc(tmp_path, "point-boundary.json", doc)
    assert cli(["certify-planar", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_size_cap_applies_to_cli(tmp_path, tetra_file, monkeypatch, capsys):
    # a level whose vertex count has more digits than Python will print
    assert cli(["subdivide", tetra_file, "--k", "10000"]) == 1
    assert "over the cap" in capsys.readouterr().err
    monkeypatch.setenv("STEKLOV_MAX_N", "8")
    assert cli(["gen", "torus", "3", "3", "-o", str(tmp_path / "t.json")]) == 1
    assert "over the cap" in capsys.readouterr().err


def test_entry_point_raises_system_exit(k2_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["steklov", "spectrum", k2_file])
    with pytest.raises(SystemExit) as ei:
        entry()
    assert ei.value.code == 0
    assert capsys.readouterr().out == "0 2\n"


@pytest.mark.parametrize("module", ["steklov", "steklov.cli"])
def test_module_invocation_runs_the_cli(module, tmp_path, capsys):
    path = write_doc(tmp_path, "torus.json", graph_to_document(gen_torus(3, 3)))
    assert cli(["spectrum", path, "--k", "2"]) == 0
    want = capsys.readouterr().out
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", module, "spectrum", path, "--k", "2"],
                         capture_output=True, cwd=tmp_path, env=env)
    assert run.returncode == 0
    assert run.stdout == want.encode()
    assert run.stderr == b""
