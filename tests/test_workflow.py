"""Static checks of the CI workflow, which cannot be run offline.

``.github/workflows/tests.yml`` is read as text, without a YAML parser:
the paths it names under ``fixtures/`` and ``tests/golden/`` must exist,
its ``cmp`` loop must compare every golden artifact, each inline
``python -c`` script must compile, and every job must set a timeout.  Shell ``for`` loops are expanded, so
``tests/golden/$f.$c.json`` stands for every fixture x command pair.
"""

import itertools
import pathlib
import re
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()

#: ``decompose_reference.json`` is read by the tests, not written by a command.
NOT_A_COMMAND_ARTIFACT = {"decompose_reference.json"}

LOOPS = {
    var: words.split() for var, words in re.findall(r"\bfor (\w+) in ([^;\n]+); do", WORKFLOW)
}


def expand(path: str) -> list[str]:
    """Every path a shell loop variable in `path` takes on."""
    names = re.findall(r"\$(\w+)", path)
    out = []
    for values in itertools.product(*(LOOPS[n] for n in names)):
        expanded = path
        for name, value in zip(names, values):
            expanded = expanded.replace(f"${name}", value, 1)
        out.append(expanded)
    return out


def named_paths(pattern: str) -> set[str]:
    return {p for m in re.findall(pattern, WORKFLOW) for p in expand(m)}


def test_golden_loop_runs_every_fixture():
    assert sorted(LOOPS["f"]) == sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
    assert LOOPS["c"]


def test_every_named_fixture_and_golden_exists():
    paths = named_paths(r"\b(?:fixtures|tests/golden)/[\w.$]*")
    assert "fixtures/symmetric_s030.json" in paths
    assert "tests/golden/sweep_priors.csv" in paths
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert missing == []


def test_golden_loop_compares_every_artifact():
    compared = {pathlib.PurePosixPath(p).name for p in named_paths(r"cmp - (tests/golden/[\w.$]+)")}
    goldens = {p.name for p in (ROOT / "tests" / "golden").iterdir()}
    assert compared == goldens - NOT_A_COMMAND_ARTIFACT


def test_inline_python_scripts_compile():
    scripts = re.findall(r'python3? -c "((?:[^"\\]|\\.)*)"', WORKFLOW, re.DOTALL)
    assert scripts
    for script in scripts:
        compile(textwrap.dedent(script), "<tests.yml>", "exec")


def test_every_job_sets_a_timeout():
    """GitHub's default job timeout is 6 hours."""
    jobs = WORKFLOW.split("\njobs:\n", 1)[1]
    blocks = re.split(r"\n(?=  [\w-]+:\n)", "\n" + jobs)[1:]
    names = [block.split(":", 1)[0].strip() for block in blocks]
    assert names == ["tier1", "benchmark-selftest"]
    for name, block in zip(names, blocks):
        assert re.search(r"^    timeout-minutes: [1-9]\d*$", block, re.MULTILINE), name
