"""Command-line tools: assembler driver, runner, objdump, auditor.

Installed as console scripts (``roload-as``, ``roload-run``,
``roload-objdump``, ``roload-audit``, ``roload-stats``,
``roload-inject``, ``roload-fuzz``) and runnable as modules
(``python -m repro.tools.asmtool`` etc.). Each exposes ``main(argv)``
returning an exit code, so they are directly testable.
"""
