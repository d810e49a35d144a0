"""Terminal adapters over :mod:`repro.api` — parse, delegate, print.

This package is deliberately thin: every command line maps onto a
public :mod:`repro.api` (or :mod:`repro.experiments.registry`) call,
and nothing here is importable logic worth testing beyond argument
wiring.  ``python -m repro.cli`` runs :func:`main`; the ``sweep``
subcommand family (``run`` / ``worker`` / ``reduce`` / ``status``)
lives in :mod:`repro.cli.sweep`.
"""

from repro.cli.main import main

__all__ = ["main"]
