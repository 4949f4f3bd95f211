import json

import pytest

from trajspace import homology, sweep
from trajspace.cli import main
from trajspace.homology import BoundaryMismatch
from trajspace.realroots import BudgetExceeded

from conftest import ESCAPED_OVALS, FIXTURES, TWO_OVALS, fixture_path


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


@pytest.mark.parametrize("cx", [31, -31])
def test_analyze_radial_sample_line_tangent_on_opposite_ray(capsys, tmp_path, cx):
    # the sample line through the centre is tangent to the hole on the ray
    # of the other chart; that double root must not stop the sampled chart
    scene = {"field": {"kind": "radial", "center": [[cx, 1], [0, 1]]},
             "outer": {"curve": {"type": "circle", "center": [[1, 1], [0, 1]],
                                 "radius": [8, 1]}, "inside_sign": 1},
             "holes": [{"curve": {"type": "circle", "center": [[-5, 1], [1, 1]],
                                  "radius": [1, 1]}, "inside_sign": -1}],
             "bbox": [[-11, 1], [11, 1], [-11, 1], [11, 1]]}
    scene_file, out_file = tmp_path / "s.json", tmp_path / "r.json"
    scene_file.write_text(json.dumps(scene))
    code, _ = run(capsys, "analyze", str(scene_file), "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    per_pattern = doc["complexity"]["per_pattern"]
    assert (per_pattern["2"], per_pattern["121"]) == (2, 2)
    assert doc["homology"]["double"]["betti"] == [1, 2, 1]
    assert doc["bounds"]["all_pass"]


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
    5,
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


DISK_OUTER = {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [2, 1]}}


@pytest.mark.parametrize("outer, holes", [
    ([1], []),                      # outer is no object
    (DISK_OUTER, [5]),              # a hole is no object
    (DISK_OUTER, {"a": 1}),         # holes is no list
    (DISK_OUTER, [{"curve": [1]}]),
])
def test_analyze_non_object_component_is_parse_error(capsys, tmp_path, outer, holes):
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": outer, "holes": holes, "bbox": [[-4, 1], [4, 1], [-4, 1], [4, 1]]}))
    code, out = run(capsys, "analyze", str(scene))
    assert code == 1
    assert json.loads(out)["error"] == "PARSE"


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",                              # not UTF-8
    b"[" * 100000 + b"]" * 100000,                # nested past the recursion limit
    b'{"outer": ' + b"1" * 5000 + b"}",           # an integer too long to convert
], ids=["not_utf8", "too_deep", "long_integer"])
def test_analyze_undecodable_scene_is_parse_error(capsys, tmp_path, content):
    scene = tmp_path / "bad.json"
    scene.write_bytes(content)
    code, out = run(capsys, "analyze", str(scene))
    assert code == 1
    assert json.loads(out)["error"] == "PARSE"


def test_export_non_utf8_scene_is_an_error(capsys, tmp_path):
    scene = tmp_path / "bad.json"
    scene.write_bytes(b"\xff\xfe\x00")
    assert main(["export", str(scene), "--dot", str(tmp_path / "g.dot")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert not (tmp_path / "g.dot").exists()


def test_analyze_float_radius_is_parse_error(capsys, tmp_path):
    scene = json.loads(open(fixture_path("disk.json")).read())
    scene["outer"]["curve"]["radius"] = [2.9, 1]    # not silently read as radius 2
    scene_file = tmp_path / "disk29.json"
    scene_file.write_text(json.dumps(scene))
    code, out = run(capsys, "analyze", str(scene_file))
    assert code == 1
    assert "Traceback" not in out
    doc = json.loads(out)
    assert doc["error"] == "PARSE"
    assert "2.9" in doc["message"]


def test_analyze_missing_file_exit_1(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(tmp_path / "nope.json"), "--out", str(out_file))
    assert code == 1
    assert json.loads(out_file.read_text())["error"] in ("IO", "PARSE")


@pytest.mark.parametrize("flag", ["--out", "--svg", "--dot"])
def test_analyze_unwritable_output_is_io_error(capsys, tmp_path, flag):
    target = tmp_path / "no_such_dir" / "x"
    code, out = run(capsys, "analyze", fixture_path("disk.json"), flag, str(target))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "IO"
    assert "no_such_dir" in doc["message"]
    assert not target.parent.exists()


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


@pytest.mark.parametrize("name", ESCAPED_OVALS)
def test_escaped_oval_is_a_validation_error(capsys, tmp_path, name):
    # an oval outside the box or the outer curve exits 1, not 3 in the sweep
    doc, check, detail = ESCAPED_OVALS[name]
    scene_file = tmp_path / f"{name}.json"
    scene_file.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(scene_file), "--out", str(out))
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["error"] == "VALIDATION"
    assert [(c["name"], c["detail"]) for c in rep["validation"]["checks"]
            if not c["ok"]] == [(check, detail)]
    code = main(["export", str(scene_file), "--dot", str(tmp_path / "g.dot")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"validation failed: {check}: {detail}"]


def _raise(exc):
    def build(scene):
        raise exc
    return build


INTERNAL_FAILURES = [(sweep.MatchingAmbiguous("empty cell between sweep bounds"), "INTERNAL"),
                     (BudgetExceeded("sign test did not converge"), "BUDGET")]


def _analyze_fails_with_json_error_exit_3(capsys, exc, code):
    assert main(["analyze", fixture_path("disk.json")]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": code, "message": str(exc)}
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("exc,code", INTERNAL_FAILURES)
def test_analyze_internal_failure_is_one_json_error_exit_3(capsys, monkeypatch, exc, code):
    monkeypatch.setattr(sweep, "build_trajectory_space", _raise(exc))
    _analyze_fails_with_json_error_exit_3(capsys, exc, code)


def test_analyze_boundary_mismatch_is_one_json_error_exit_3(capsys, monkeypatch):
    exc = BoundaryMismatch("dd != 0 at degree 2, entry (0,0)")
    monkeypatch.setattr(homology, "cw_complex_of_double", _raise(exc))
    _analyze_fails_with_json_error_exit_3(capsys, exc, "INTERNAL")


@pytest.mark.parametrize("exc,code", INTERNAL_FAILURES)
def test_export_internal_failure_is_one_stderr_line_exit_3(capsys, monkeypatch, tmp_path,
                                                           exc, code):
    monkeypatch.setattr(sweep, "build_trajectory_space", _raise(exc))
    dot = tmp_path / "g.dot"
    assert main(["export", fixture_path("disk.json"), "--dot", str(dot)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {code}: {exc}\n"
    assert not dot.exists()


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


TILTED = sorted((FIXTURES.parent / "perfbench" / "scenes" / "tilted").glob("*.json"))


@pytest.mark.parametrize("scene", TILTED, ids=lambda p: p.stem)
def test_golden_tilted_reports(capsys, tmp_path, scene):
    # quartic and sextic scenes under non-axis fields, pinned byte for byte
    golden = FIXTURES.parent / "tests" / "golden" / "tilted" / f"{scene.stem}.report.json"
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(scene), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == golden.read_bytes()


def test_strict_flag_passes_on_good_scene(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", fixture_path("disk3.json"), "--strict",
                  "--out", str(out))
    assert code == 0


def test_disconnected_region_rejected(capsys, tmp_path):
    import json as _json
    doc = {"field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
           "outer": {"curve": {"type": "polynomial", "coeffs": TWO_OVALS}, "inside_sign": 1},
           "holes": [], "bbox": [[-5, 1], [5, 1], [-3, 1], [3, 1]]}
    scene_file = tmp_path / "twoovals.json"
    scene_file.write_text(_json.dumps(doc))
    out = tmp_path / "r.json"
    code, _ = run(capsys, "analyze", str(scene_file), "--out", str(out))
    assert code == 1
    rep = _json.loads(out.read_text())
    assert rep["error"] == "VALIDATION"
    assert any("connected" in c["detail"] for c in rep["validation"]["checks"] if not c["ok"])
