"""Outputs are byte-identical to the checked-in table (see identity_table.py).

The table was made in one environment; in another the digests may differ
for reasons outside the code, so the test fails there with the two
environments named, rather than skipping: regenerate the table on the old
code in the new environment, then check the change against it.
"""

import json

from identity_table import TABLE, digests, environment


def test_outputs_match_the_byte_identity_table(tmp_path):
    table = json.loads(TABLE.read_text())
    here = environment()
    assert table["environment"] == here, (
        f"the table was made in {table['environment']}, this is {here}: "
        "regenerate it with tests/identity_table.py at the parent commit")
    got = digests(tmp_path)
    assert sorted(got) == sorted(table["runs"])
    changed = [f"{key} {name}" for key, files in sorted(table["runs"].items())
               for name, digest in files.items() if got[key][name] != digest]
    assert not changed, f"{len(changed)} outputs differ from the table: {changed}"
