"""permnet: permutations, source/sink networks, cell diagrams, forests,
and the graded lattice tying them together."""

__version__ = "0.1.0"
