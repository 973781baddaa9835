"""The hash listing of every adaptation variant, against its committed copy.

A change that moves an output byte of any variant shows here as a changed
line. When such a move is intended, regenerate the copy and record each
moved line with the change:

    PYTHONPATH=src python tests/variant_hashes.py > tests/golden/variant_hashes.txt
"""

import pathlib

import variant_hashes

GOLDEN = pathlib.Path(__file__).parent / "golden" / "variant_hashes.txt"


def test_listing_matches_the_committed_copy(capsys):
    variant_hashes.main()
    assert capsys.readouterr().out.splitlines() == GOLDEN.read_text().splitlines()
