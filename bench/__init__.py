"""The repository benchmark; see ``bench/README.md``."""
