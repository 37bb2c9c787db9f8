"""Every benchmark manifest command's output, pinned by its committed digest.

`tests/digests.py` builds the seed-7 and seed-8 manifests of the three
workloads, full and `--tiny`, and runs their 170 commands in one child process
with one BLAS thread and one BLAS kernel pinned.  A command whose exit code,
stdout, stderr or written files changed fails here by name.  A deliberate
value change rewrites the file with `python tests/digests.py --write` and names
every moved command in CHANGES.md.
"""

import digests


def test_every_manifest_command_matches_its_committed_digest(tmp_path):
    committed = digests.load()
    assert len(committed) == 170
    moved = digests.moved(committed, digests.compute(tmp_path))
    assert not moved, f"{len(moved)} command outputs moved: {moved}"
