"""README.md's code runs as written, and its map of statements stays true.

Every python block runs; every JSON config with a `system` table solves
through the command line; the statement table has one row per acceptance
criterion; every `zubov.<name>` and `tests/<file>::<name>` it names
exists; and the convergence guards read as `SystemDef` defines them.
"""

import importlib
import json
import pathlib
import re

import pytest

from zubov import SystemDef
from zubov.cli import main
from zubov.systems import _GUARD_SIGN

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(r"^```%s\n(.*?)^```$" % language, README, re.S | re.M)


def section(heading):
    """The text under the ``## heading`` line, up to the next one."""
    return README.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]


def resolve(dotted):
    """The object a dotted name reaches from its package, importing a
    submodule where no attribute has its name."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def statement_rows():
    """The rows of the statement table, above "## Install"."""
    head = README.split("\n## Install\n", 1)[0]
    rows = [line for line in head.splitlines() if line.startswith("|")]
    return rows[2:]  # past the header and its rule


@pytest.mark.parametrize("index", range(len(blocks("python"))))
def test_python_blocks_run_as_written(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = blocks("python")[index]
    exec(compile(source, "README.md python block %d" % index, "exec"),
         {"__name__": "__readme__"})


def test_inline_systems_solve(tmp_path):
    configs = [doc for doc in map(json.loads, blocks("json"))
               if "system" in doc]
    assert configs
    for k, doc in enumerate(configs):
        path = tmp_path / ("config%d.json" % k)
        path.write_text(json.dumps(doc))
        out = tmp_path / ("out%d" % k)
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0


def test_every_criterion_has_one_row():
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    criteria = sorted(set(map(int, re.findall(r"\bverdict\((\d+),", source))))
    assert criteria == list(range(1, 10))
    named = [int(n) for row in statement_rows()
             for n in re.findall(r"\bcriterion (\d+)\b", row)]
    assert sorted(named) == criteria


def test_statement_table_covers_the_oracle_verify_and_synthesis():
    rows = "\n".join(statement_rows())
    for name in ("maximal_cost", "min_value", "synthesize_epsilon_optimal"):
        assert "`zubov.%s`" % name in rows
    for check in ("invariants", "fixed_point", "residual", "decrease",
                  "blowup"):
        assert "`zubov verify` check `%s`" % check in rows


def test_named_objects_exist():
    names = set(re.findall(r"`(zubov(?:\.\w+)+)`", README))
    assert len(names) > 20
    for name in sorted(names):
        resolve(name)
    for path, name in set(re.findall(r"`(tests/\w+\.py)::(\w+)`", README)):
        source = (ROOT / path).read_text()
        assert re.search(r"^\s*(def|class) %s\b" % name, source, re.M), name


def test_guards_read_as_systemdef_defines_them():
    words = " ".join(section("Convergence guards").split())
    for guard in _GUARD_SIGN:
        assert "- `%s`:" % guard in words
    assert words in " ".join(SystemDef.__doc__.split())
