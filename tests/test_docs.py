import importlib
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


def test_named_module_attributes_exist():
    # Every back-ticked `module.name` of an oodkit module in the README and
    # the package's modules names an attribute of that module; a file name
    # such as `gmm.json` is not one.
    modules = {path.stem for path in (ROOT / "src" / "oodkit").glob("*.py")} - {"__init__"}
    extensions = {"csv", "json", "md", "npy", "npz", "py", "txt"}
    named = {}
    for path in [ROOT / "README.md", *sorted((ROOT / "src" / "oodkit").glob("*.py"))]:
        for module, name in re.findall(r"`(\w+)\.(\w+)", path.read_text(encoding="utf-8")):
            if module in modules and name not in extensions:
                named.setdefault((module, name), path.relative_to(ROOT).as_posix())
    assert named, "no module attribute is named in README.md or src/oodkit/"
    missing = {f"{module}.{name}": where for (module, name), where in named.items()
               if not hasattr(importlib.import_module(f"oodkit.{module}"), name)}
    assert not missing, f"named attributes that their modules lack: {missing}"
