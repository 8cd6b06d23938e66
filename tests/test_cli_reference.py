"""Replay the benchmark's recorded CLI rows through `cli.main`.

perfbench/cli_reference.json holds one output row per (template,
statement), recorded by running the template's prelude from
perfbench/sessions.py plus that statement alone.  Each replay must exit 0
with exactly one row that holds every recorded key with an equal value;
fields added later are allowed, as in the benchmark.  The perfbench files
are only read.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import sessions  # noqa: E402

REFERENCE = sessions.load_reference()
CASES = sorted((template, statement)
               for template, rows in REFERENCE.items() for statement in rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the group triples that `represent` reads."""
    root = tmp_path_factory.mktemp("cli-reference")
    sessions.write_triples(str(root))
    return root


@pytest.mark.parametrize("template,statement", CASES)
def test_reference_row(template, statement, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    with open("replay.sel", "w", encoding="utf-8") as handle:
        handle.write(sessions.script_text(template, [statement]))
    code, rows = sessions.run_script("replay.sel")
    want = REFERENCE[template][statement]
    assert code == 0
    assert len(rows) == 1
    assert sessions.project(rows[0], sorted(want)) == want
