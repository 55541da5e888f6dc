"""A reference round's outputs, stdout, stderr and exit codes match the
committed digests, under two hash seeds (see reference_round.py)."""

from concurrent.futures import ThreadPoolExecutor

from reference_round import DIGESTS, run_round


def test_a_round_gives_the_committed_digests_under_two_hash_seeds():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    # The two rounds run side by side, each a command at a time.
    with ThreadPoolExecutor(2) as pool:
        rounds = dict(zip(["0", "1"], pool.map(run_round, ["0", "1"])))
    assert rounds == {"0": expected, "1": expected}
