"""Reference implementations kept only as exact-parity oracles.

``repro`` ships one implementation of each layer.  The readable versions
they replaced live here so the parity suites (and the benchmarks'
reference planes) can check the production code against them:

* :mod:`tests.oracles.analysis` — the set-based analyses the CSR
  analysis plane replaced;
* :mod:`tests.oracles.dict_backend` — ``DictBackend``, the dict-of-dicts
  topology backend :class:`~repro.core.array_backend.ArraySlotBackend`
  replaced.  Tests inject it as ``backend=DictBackend()``.
"""
