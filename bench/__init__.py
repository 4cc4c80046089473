"""The repository's benchmark: six named workloads from the simulator
core to the keyed TCP service, measured end to end (tracing off) and
layer by layer (a separate traced run).  See ``bench/README.md``.

Nothing under ``src/`` knows about this package: workloads call public
entry points only, and the traced run patches those entry points from
here (``bench/trace.py``) for the duration of one repeat.
"""
