"""fednorm benchmark: workloads, output checks, tracing and the runner."""
