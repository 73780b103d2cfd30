"""Every mutants/entries.py snippet occurs exactly once in its file, as
mutants/run.py requires: a change that moves or duplicates a snippet
fails here, in the tier-1 run, and not only in the mutation run."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutant_entries", os.path.join(ROOT, "mutants", "entries.py"))
_entries = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_entries)
MUTANTS = _entries.MUTANTS


def test_entry_names_are_distinct():
    # mutants/run.py picks entries by name
    names = [entry["name"] for entry in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("entry", MUTANTS, ids=[e["name"] for e in MUTANTS])
def test_snippet_occurs_once_in_its_file(entry):
    with open(os.path.join(ROOT, entry["file"])) as fh:
        assert fh.read().count(entry["snippet"]) == 1
