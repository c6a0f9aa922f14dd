"""The repo's one frozen end-to-end benchmark (see bench/README.md).

A package of its own — not part of ``benchmarks/`` — so that
``BENCHMARK.json`` can name it as the only path the benchmark owns, and
so the autouse fixture in ``benchmarks/conftest.py`` (which truncates the
committed ``benchmarks/results.txt``) never sees it.
"""
