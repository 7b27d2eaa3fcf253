"""The snapshot dump format, and the writer process that formats a dump while
its run marches: `python -I -S _dumpfile.py <file> <n>`. The module imports
only the standard library, so the process starts in a few tens of
milliseconds. It reads raw native float64 values on stdin, the n x values
and then t and n values per snapshot, writes the dump to `<file>` and exits
0 once stdin ends; an error ends it nonzero, with the error as the last line
of its stderr.
"""

import array
import sys

# Lines per `%` operation in the dump: a block of text (about 1.5 kB) that
# fits in the file's write buffer.
_DUMP_ROWS = 32


def _templates(x) -> list:
    """The x column (a numpy array or an `array.array`) formatted once per
    dump, into `"<x> %.17g"` line templates of `_DUMP_ROWS` lines each."""
    return ["".join(f"{xv:.17g} %.17g\n" for xv in x[i:i + _DUMP_ROWS])
            for i in range(0, len(x), _DUMP_ROWS)]


def _write_dump(fh, templates: list, t: float, values) -> None:
    """Write one snapshot to `fh` in the dump format, the one formatter of
    every dump: the `# t=` header, then the x templates filled one block at a
    time with one `%` operation, so one block of text is held at a time."""
    fh.write(f"# t={t:.17g}\n")
    for k, template in enumerate(templates):
        block = values[k * _DUMP_ROWS:(k + 1) * _DUMP_ROWS]
        fh.write(template % tuple(block.tolist()))


def _main(path: str, n: int) -> None:
    """Body of the writer process: the dump that arrives on stdin, to `path`."""
    stdin = sys.stdin.buffer
    templates = _templates(array.array("d", stdin.read(8 * n)))
    with open(path, "w") as fh:
        while record := array.array("d", stdin.read(8 * (n + 1))):
            _write_dump(fh, templates, record[0], record[1:])


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))
