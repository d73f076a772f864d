"""README.md's library sketch runs as written, so a public name that it
uses cannot be removed or renamed without this test failing; and the
package exports only what the sketch calls, so an export that only tests
use cannot come back unnoticed.  Its install paragraph names the LAPACK
routines that the package calls, no more and no fewer."""

import re
from pathlib import Path

import quenchfront
from quenchfront import cli, grid

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _sketch():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_library_sketch_runs():
    exec(compile(_sketch(), str(README), "exec"), {})


def test_package_exports_what_the_sketch_calls():
    # qf.<name>( only: qf.bvp.<f>( and qf.evolve.<f>( reach into modules
    called = set(re.findall(r"\bqf\.(\w+)\(", _sketch()))
    assert set(quenchfront.__all__) - {"__version__"} == called


def test_command_lines_parse():
    # every command line of the CLI block names flags and choices the parser has
    lines = [line.split("#")[0].split()[1:] for line in README.read_text().splitlines()
             if line.startswith("quenchfront ")]
    assert {words[0] for words in lines} == {"solve", "branch", "spectrum", "evolve",
                                             "compare-tanh", "validate"}
    parser = cli.build_parser()
    for words in lines:
        assert parser.parse_args(words).command == words[0]


def test_lapack_routines_named_are_those_called():
    [paragraph] = [p for p in README.read_text().split("\n\n") if p.startswith("Dependencies:")]
    named = {w for w in re.findall(r"`(\w+)`", paragraph) if hasattr(grid.flapack, w)}
    called = {name for path in (ROOT / "src").rglob("*.py")
              for name in re.findall(r"\bflapack\.(\w+)\(", path.read_text())}
    assert named == called
