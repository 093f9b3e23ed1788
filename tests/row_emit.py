"""The row-by-row table formatter the CLI used before it emitted tables column-wise: the oracle of its bytes.

It formats every cell on its own, through `format_value`, from a list of row dicts.
"""

import json


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def emit_rows(command: str, rows: list, summary: dict, fmt: str) -> tuple[str, str]:
    """The table text (stdout or `--out`) and the stderr text that the CLI writes for `rows` and `summary`."""
    notes = [f"{key} = {'none' if value is None else format_value(value)}" for key, value in summary.items()]
    lines = []
    if fmt == "json":
        lines = [json.dumps({"command": command, "rows": rows, "summary": summary}, indent=2)]
    elif rows:
        columns = list(rows[0])
        table = [columns] + [[format_value(row[c]) for c in columns] for row in rows]
        if fmt == "csv":
            lines = [",".join(cells) for cells in table]
        else:
            widths = [max(map(len, column)) for column in zip(*table)]
            lines = ["  ".join(v.ljust(w) for v, w in zip(cells, widths)) for cells in table] + notes
    errors = "" if fmt == "pretty" else "".join(note + "\n" for note in notes)
    return "".join(line + "\n" for line in lines), errors
