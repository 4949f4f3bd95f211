from conftest import ROOT, digest_script

GOLDEN = ROOT / "tests" / "golden" / "identity_digest.txt"


def test_identity_digest_matches_golden():
    # byte identity of every report, DOT, SVG and kernel output the script covers
    want = GOLDEN.read_text().splitlines()
    got = list(digest_script().digest_lines())
    differing = [w.split("  ", 1)[1] for w, g in zip(want, got) if w != g]
    assert not differing, f"digest lines differ from {GOLDEN.name}: {differing}"
    assert len(got) == len(want), f"{len(got)} digest lines, {len(want)} pinned"
