"""Benchmark suite: one module per table/figure of the paper (see README.md, "Substitutions")."""
