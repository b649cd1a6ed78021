"""The bounded-repetition partitions of one weight, for tests."""

from qident.partitions import Partition, _repetition_bounded_walk


def partitions_repetition_bounded(weight, modulus):
    """Every partition of ``weight`` in which each part value occurs fewer
    than ``modulus`` times, in lexicographically decreasing order: the
    members of that weight on the bounded-repetition walk."""
    return [
        Partition(parts)
        for w, parts in _repetition_bounded_walk(weight, modulus)
        if w == weight
    ]
