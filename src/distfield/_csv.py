"""The CSV number format: 17 significant digits, which round-trip every float."""


def csv_row(values) -> str:
    """The values joined by commas, each with 17 significant digits."""
    return ",".join(format(v, ".17g") for v in values)
