"""The repository benchmark's harness: workloads, checks, spans and statistics."""
