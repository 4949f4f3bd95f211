import json

import pytest

from trajspace.cli import main

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_disk(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", fixture_path("disk.json"), "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["homology"]["double"]["betti"] == [1, 0, 1]
    assert doc["bounds"]["all_pass"]


def test_analyze_annulus3_values(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", fixture_path("annulus3.json"), "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["complexity"]["tc"] == [6, 9]
    assert doc["homology"]["double"]["betti"] == [1, 8, 1]
    assert doc["bounds"]["rho1_ratio"] == "1/2"


def test_analyze_degenerate_exit_2(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", fixture_path("degenerate/double_tangent.json"),
                  "--out", str(out_file))
    assert code == 2
    doc = json.loads(out_file.read_text())
    assert doc["error"] == "DEGENERATE"
    assert doc["genericity"]["verdict"] == "FAIL"


def test_analyze_malformed_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(bad), "--out", str(out_file))
    assert code == 1
    assert json.loads(out_file.read_text())["error"] == "PARSE"


@pytest.mark.parametrize("curve", [
    {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [2, 0]},
    {"type": "polynomial", "coeffs": [[2, 0, 1, 1], [0, 2, 1, 1], [-1, 0, 1, 1]]},
    {"type": "polynomial", "coeffs": [[1, 0, 0, 1]]},
])
def test_analyze_bad_curve_is_one_parse_error(capsys, tmp_path, curve):
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": {"curve": curve, "inside_sign": 1}, "holes": [],
        "bbox": [[-4, 1], [4, 1], [-4, 1], [4, 1]]}))
    code, out = run(capsys, "analyze", str(scene))
    assert code == 1
    assert json.loads(out)["error"] == "PARSE"


def test_analyze_missing_file_exit_1(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(tmp_path / "nope.json"), "--out", str(out_file))
    assert code == 1
    assert json.loads(out_file.read_text())["error"] in ("IO", "PARSE")


def test_report_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "analyze", fixture_path("disk2.json"), "--out", str(a))[0] == 0
    assert run(capsys, "analyze", fixture_path("disk2.json"), "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_thread_env_stable(capsys):
    # the oracle samples in one thread; its output depends on the seed only
    first = run(capsys, "oracle", "--pattern", "121", "--samples", "60", "--seed", "3")
    second = run(capsys, "oracle", "--pattern", "121", "--samples", "60", "--seed", "3")
    assert first == second
    assert first[0] == 0


def test_enumerate_omega_n1(capsys):
    code, out = run(capsys, "enumerate-omega", "--n", "1")
    assert code == 0
    lines = [l.split()[0] for l in out.strip().splitlines()]
    assert lines == ["(11)", "(2)", "(121)"]


def test_enumerate_omega_n3_contains_fourfold(capsys):
    code, out = run(capsys, "enumerate-omega", "--n", "3")
    assert code == 0
    for pat in ["(12221)", "(141)", "(321)", "(123)"]:
        assert pat in out


def test_enumerate_omega_out_of_range(capsys):
    assert run(capsys, "enumerate-omega", "--n", "9")[0] == 1


def test_oracle_1221(capsys):
    code, out = run(capsys, "oracle", "--pattern", "1221", "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["containment"] == "PASS"
    assert doc["chamber_count"] == 6


def test_oracle_bad_pattern(capsys):
    assert run(capsys, "oracle", "--pattern", "21")[0] == 1


@pytest.mark.parametrize("flag,value", [
    ("--magnitude", "abc"), ("--magnitude", "0"), ("--magnitude", "-1/2"),
    ("--magnitude", "1/0"), ("--magnitude", "1e-99999"),
    ("--samples", "0"), ("--samples", "-3"),
])
def test_oracle_bad_arguments(capsys, flag, value):
    code = main(["oracle", "--pattern", "121", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must")


@pytest.mark.parametrize("value,exact", [("1/1000", "1/1000"), ("0.25", "1/4"),
                                         ("2e-3", "1/500")])
def test_oracle_magnitude_forms(capsys, value, exact):
    code, out = run(capsys, "oracle", "--pattern", "121", "--samples", "5",
                    f"--magnitude={value}")
    assert code == 0
    assert json.loads(out)["magnitude"] == exact


def test_export_files(capsys, tmp_path):
    svg, dot = tmp_path / "s.svg", tmp_path / "g.dot"
    code, _ = run(capsys, "export", fixture_path("annulus3.json"),
                  "--svg", str(svg), "--dot", str(dot))
    assert code == 0
    assert svg.read_text().startswith("<svg")
    text = dot.read_text()
    assert text.count('label="(121)"') == 6


def test_export_validates_first(capsys, tmp_path):
    scene = json.loads(open(fixture_path("disk.json")).read())
    scene["outer"]["curve"]["radius"] = [5, 1]     # the circle meets the box frame
    scene_file = tmp_path / "disk5.json"
    scene_file.write_text(json.dumps(scene))
    svg = tmp_path / "s.svg"
    code = main(["export", str(scene_file), "--svg", str(svg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bbox[outer]" in err
    assert "Traceback" not in err
    assert not svg.exists()


def test_export_dot_only(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _ = run(capsys, "export", fixture_path("disk.json"), "--dot", str(dot))
    assert code == 0
    assert dot.exists()
    assert not (tmp_path / "s.svg").exists()

def test_golden_reports(capsys, tmp_path):
    import pathlib
    golden_dir = pathlib.Path(__file__).resolve().parent / "golden"
    for name in ("disk", "annulus3"):
        out = tmp_path / f"{name}.json"
        code, _ = run(capsys, "analyze", fixture_path(f"{name}.json"), "--out", str(out))
        assert code == 0
        assert out.read_text() == (golden_dir / f"{name}.report.json").read_text()


def test_strict_flag_passes_on_good_scene(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", fixture_path("disk3.json"), "--strict",
                  "--out", str(out))
    assert code == 0


def test_disconnected_region_rejected(capsys, tmp_path):
    import json as _json
    from trajspace.bivar import bp_mul
    from trajspace.geometry import circle_poly
    F = bp_mul(circle_poly(-3, 0, 1), circle_poly(3, 0, 1))
    coeffs = [[i, j, v.numerator, v.denominator] for (i, j), v in sorted(F.items())]
    doc = {"field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
           "outer": {"curve": {"type": "polynomial", "coeffs": coeffs}, "inside_sign": 1},
           "holes": [], "bbox": [[-5, 1], [5, 1], [-3, 1], [3, 1]]}
    scene_file = tmp_path / "twoovals.json"
    scene_file.write_text(_json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(scene_file), "--out", str(out))
    assert code == 1
    rep = _json.loads(out.read_text())
    assert rep["error"] == "VALIDATION"
    assert any("connected" in c["detail"] for c in rep["validation"]["checks"] if not c["ok"])
