"""``python -m wdpoly``: the ``wdpoly`` command line."""

from .cli import entry

entry()
