"""``python -m grassdr``: the command-line interface."""
from .cli import entrypoint

entrypoint()
