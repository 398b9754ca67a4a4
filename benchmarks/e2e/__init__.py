"""The end-to-end benchmark of the repository (see README.md)."""
