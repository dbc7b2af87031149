"""perfbench: the repo's one wall-clock + simulated-clock benchmark.

See ``perfbench/README.md`` for the metric glossary, the workloads and
the layer -> wrapped-function map; ``BENCHMARK.json`` at the repo root
is the contract the driver runs it by.
"""
