"""Whole-program analysis layer for the repro linter (RL1xx rules).

Per-file facts (:mod:`~repro.lint.program.facts`) are extracted once per
content hash (:mod:`~repro.lint.program.cache`), composed into a symbol
table and call graph (:mod:`~repro.lint.program.symbols`,
:mod:`~repro.lint.program.callgraph`), and closed under interprocedural
propagation (:mod:`~repro.lint.program.model`).  The RL1xx rules in
:mod:`~repro.lint.program.rules` interpret the resulting model; every
``repro lint`` run builds it.
"""
