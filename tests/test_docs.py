import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_named_tests_exist():
    # Every back-ticked test name in the README and the package's modules
    # names a test function defined somewhere under tests/.
    named = {}
    for path in [ROOT / "README.md", *sorted((ROOT / "src" / "oodkit").glob("*.py"))]:
        for name in re.findall(r"`(test_\w+)`", path.read_text(encoding="utf-8")):
            named.setdefault(name, path.relative_to(ROOT).as_posix())
    defined = {name for path in (ROOT / "tests").glob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)\(", path.read_text(encoding="utf-8"),
                                      flags=re.MULTILINE)}
    assert named, "no test is named in README.md or src/oodkit/"
    missing = {name: where for name, where in named.items() if name not in defined}
    assert not missing, f"named tests that tests/ does not define: {missing}"
