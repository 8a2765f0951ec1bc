"""The repository's benchmark: three workloads, end-to-end and per-layer
metrics, and an outside-in span tracer.  See ``perfbench/README.md``."""
