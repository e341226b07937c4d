"""End-to-end and per-layer benchmark of the pbeseries CLI (see README.md)."""
