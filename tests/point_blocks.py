"""Flattening of the point blocks that ``enumerate_points`` yields."""


def point_tuples(blocks):
    """The rows of ``blocks``, in stream order, as tuples of Python ints."""
    return [tuple(row) for block in blocks for row in block.tolist()]
