"""The one CSV format of every table the package writes."""


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):  # bool included
        return str(value)
    return f"{value:.17g}"


def write_csv(path, header: str, rows, comment: str | None = None) -> None:
    """Write an optional ``# comment`` line, the header and one line per row:
    floats at 17 significant digits (a double's exact round trip), ints and
    bools by ``str``, ``None`` as an empty cell."""
    with open(path, "w", encoding="utf-8") as out:
        if comment is not None:
            out.write(f"# {comment}\n")
        out.write(header + "\n")
        out.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
