"""Shared helpers, imported from their modules.

:mod:`~repro.utils.validation`, :mod:`~repro.utils.tables` and
:mod:`~repro.utils.gc_pause` are pure Python; :mod:`~repro.utils.rng`,
:mod:`~repro.utils.stats`, :mod:`~repro.utils.workspace` and
:mod:`~repro.utils.ascii_plot` need NumPy. The package re-exports nothing,
so importing one helper never loads the others.
"""
