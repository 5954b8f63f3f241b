"""Traced witnesses of every exact solver across the cross-check corpus."""

from conftest import applicable_solvers, assert_witnesses


def test_best_witness_of_every_solver_on_the_corpus(corpus):
    runs, failures = 0, []
    for i, entry in enumerate(corpus):
        prunes = (True, False) if i % 5 == 0 else (True,)
        for name, run in applicable_solvers(entry.parsed):
            for prune in prunes:
                runs += 1
                try:
                    assert_witnesses(entry.instance, run(witnesses=True, prune=prune), 0)
                except (AssertionError, ValueError) as exc:
                    failures.append((entry.family, entry.seed, name, prune, str(exc)))
    assert failures == []
    assert runs > 2 * len(corpus)
