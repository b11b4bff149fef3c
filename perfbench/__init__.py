"""End-to-end and per-layer benchmark of minblock (see README.md)."""
