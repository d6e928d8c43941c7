"""The CLI's exit codes, stdout and stderr on a fixed corpus of commands,
and the library's bits on a cheap subset of its entries, match the digests
committed in ``cli_digests.json``.

The corpus and the file come from ``tools/cli_corpus.py``; a change that
alters CLI output or library bits regenerates the file with
``python3 tools/cli_corpus.py --write-digests tests/cli_digests.json``.
Numeric values depend on the LAPACK build, so the numeric commands and the
library digests are compared only on a machine whose recorded fields match.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import cli_corpus  # noqa: E402


def test_cli_output_matches_committed_digests():
    recorded = json.loads((ROOT / "tests" / "cli_digests.json").read_text())
    got = cli_corpus.digests()
    same_machine = cli_corpus.machine() == recorded["machine"]
    differ = []
    for part in ("commands", "library"):
        assert sorted(got[part]) == sorted(recorded[part])
        differ += [
            label for label, want in recorded[part].items()
            if (same_machine or not (part == "library" or label.startswith("numeric-zz/")))
            and got[part][label] != want
        ]
    assert not differ, f"{len(differ)} digests differ from cli_digests.json: {differ[:10]}"
