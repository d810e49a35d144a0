"""Reference implementations kept only as exact-parity oracles.

``repro`` ships one implementation of each analysis; the readable
set-based versions it replaced live here so the parity suites (and the
analysis benchmark's reference plane) can check the production code
against them.
"""
