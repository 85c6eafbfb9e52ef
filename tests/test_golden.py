"""Golden outputs: the Gram, scan and kimura reports stay byte-identical.

The reference digests are the sha256 of each command's standard output,
recorded in bench/digests.json; this test only reads that file.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tautring.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"
GOLDEN = {
    key: value
    for key, value in json.loads(DIGESTS.read_text()).items()
    if key.split()[0] in ("gram", "scan", "kimura")
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_digest_is_unchanged(capsys, command):
    assert main(command.split()) == 0
    output = capsys.readouterr().out.encode()
    assert hashlib.sha256(output).hexdigest() == GOLDEN[command]
