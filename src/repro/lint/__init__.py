"""``repro.lint`` — the AST-based simulator correctness linter.

The runtime sanitizer (``repro.check``) catches invariant violations that a
particular run happens to exercise; this package catches whole classes of
reproducibility bugs statically, across *all* code paths, at zero simulation
cost.  Every run builds one whole-program model (:mod:`repro.lint.program`)
and applies nine rules, one per property:

* **RL001 determinism** — unseeded randomness and wall-clock reads inside
  the simulation core (use :class:`repro.common.rng.DeterministicRng`),
  ``id()``-keyed dictionaries, and unordered ``set`` iteration.
* **RL002 stats-key hygiene** — dynamically-built stats keys at record
  sites in the simulation packages.
* **RL003 config liveness** — dead configuration knobs (dataclass fields
  nobody reads) and reads of fields no config class declares.
* **RL004 unit hygiene** — arithmetic mixing ``Cycles``-annotated
  quantities with byte quantities or bare float literals in timing code.
* **RL005 hot-path hygiene** — per-call dataclass construction,
  dynamically-built stats keys, and per-element loops over stream-chunk
  columns inside functions marked ``# repro-hot`` (the per-operation path
  inventoried in ``docs/PERFORMANCE.md``).
* **RL101 stats liveness** — keys read but recorded nowhere, keys recorded
  but read nowhere, and near-duplicate (typo'd) keys, program-wide.
* **RL102 determinism taint** — nondeterministic values reaching simulator
  state or stats records through any chain of calls.
* **RL103 snapshot safety** — process-local objects stored on any class a
  checkpoint of ``System`` can reach.
* **RL105 persist discipline** — raw state-file writes in the persistence
  packages, direct or through helpers outside them.

Use it as ``python -m repro lint [--format text|json]``; see
``docs/LINTING.md`` for the rule catalogue, the ``# repro-lint:
disable=RULE`` suppression syntax, and the baseline workflow.  The API
lives in :mod:`repro.lint.engine` (``LintEngine``, ``lint_paths``).
"""
