"""The benchmark's library: workloads, tracing, metrics, process hygiene."""
