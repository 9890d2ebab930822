"""No line of the package, its tests or its demos is longer than 100 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100


def long_lines(paths):
    """(file, line number, length) of every line over LIMIT characters."""
    return [(f"{path.parent.name}/{path.name}", number, len(line))
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > LIMIT]


def test_no_line_exceeds_the_limit():
    paths = sorted((ROOT / "src" / "wavekin").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    paths += sorted(p for p in (ROOT / "demos").iterdir() if p.is_file())
    assert long_lines(paths) == []


def test_the_scan_sees_a_long_line(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("x" * LIMIT + "\n" + "y" * (LIMIT + 1) + "\n")
    assert long_lines([path]) == [(f"{tmp_path.name}/sample.py", 2, LIMIT + 1)]
