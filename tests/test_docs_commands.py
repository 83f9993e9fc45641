"""Every command the docs tell a reader to run names something that exists.

README.md, DEPLOY.md and the verify skill show ``python <path>.py`` and
``python -m <module>`` lines. A script or module that is deleted or moved
must take its doc lines with it, so each path must be a file in the repo and
each module must resolve: to a file or package in the repo when its top-level
name is one of ours, else to an installed module (``pytest``).
"""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DEPLOY.md", os.path.join(".claude", "skills", "verify", "SKILL.md"))

SCRIPT = re.compile(r"\bpython3?\s+([^\s`'\"|;&()]+\.py)\b")
MODULE = re.compile(r"\bpython3?\s+-m\s+([A-Za-z_][\w.]*)")


def _commands() -> tuple[set[str], set[str]]:
    scripts, modules = set(), set()
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            text = f.read()
        scripts.update(
            p for p in SCRIPT.findall(text)
            if not p.startswith("/") and "<" not in p and ">" not in p
        )
        modules.update(MODULE.findall(text))
    return scripts, modules


def _module_exists(name: str) -> bool:
    top = name.split(".")[0]
    if os.path.isdir(os.path.join(ROOT, top)) or os.path.isfile(
        os.path.join(ROOT, top + ".py")
    ):
        path = os.path.join(ROOT, *name.split("."))
        return os.path.isfile(path + ".py") or os.path.isfile(
            os.path.join(path, "__main__.py")
        )
    return importlib.util.find_spec(top) is not None


def test_doc_commands_name_existing_files_and_modules():
    scripts, modules = _commands()
    # the scan must see the commands the docs are known to carry
    assert "perfbench/run.py" in scripts
    assert "spider_ray.cli" in modules
    missing = sorted(p for p in scripts if not os.path.isfile(os.path.join(ROOT, p)))
    missing += sorted(f"-m {m}" for m in modules if not _module_exists(m))
    assert not missing, f"docs name commands that do not exist: {missing}"


def test_scan_catches_a_deleted_script():
    line = "python tools/no_such_tool.py --flag  # stale"
    assert SCRIPT.findall(line) == ["tools/no_such_tool.py"]
    assert not os.path.isfile(os.path.join(ROOT, "tools/no_such_tool.py"))
    assert MODULE.findall("`python -m spider_ray.gone x`") == ["spider_ray.gone"]
    assert not _module_exists("spider_ray.gone")
