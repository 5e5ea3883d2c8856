"""Reference implementations the production fast paths are checked against."""
