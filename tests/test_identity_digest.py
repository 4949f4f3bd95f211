import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "identity_digest.txt"


def _digest_script():
    spec = importlib.util.spec_from_file_location("identity_digest",
                                                  ROOT / "scripts" / "identity_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_digest_matches_golden():
    # byte identity of every report, DOT, SVG and kernel output the script covers
    want = GOLDEN.read_text().splitlines()
    got = list(_digest_script().digest_lines())
    differing = [w.split("  ", 1)[1] for w, g in zip(want, got) if w != g]
    assert not differing, f"digest lines differ from {GOLDEN.name}: {differing}"
    assert len(got) == len(want), f"{len(got)} digest lines, {len(want)} pinned"
