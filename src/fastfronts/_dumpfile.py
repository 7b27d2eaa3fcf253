"""The snapshot dump format, and the writer process that writes every dump:
`python -I -S _dumpfile.py <file> <n>`. The module imports only the standard
library, so the process starts in a few tens of milliseconds, and the
package never imports it. The process reads raw native float64 values on
stdin, the n x values and then t and n values per snapshot, writes the dump
to `<file>` and exits 0 once stdin ends; an error ends it nonzero, with the
error as the last line of its stderr.
"""

import array
import sys

# Lines per `%` operation in the dump: a block of text (about 1.5 kB) that
# fits in the file's write buffer.
_DUMP_ROWS = 32


def _templates(x: array.array) -> list:
    """The x column formatted once per dump, into `"<x> %.17g"` line
    templates of `_DUMP_ROWS` lines each."""
    return ["".join(f"{xv:.17g} %.17g\n" for xv in x[i:i + _DUMP_ROWS])
            for i in range(0, len(x), _DUMP_ROWS)]


def _write_dump(fh, templates: list, t: float, values: array.array) -> None:
    """Write one snapshot to `fh` in the dump format, the one formatter of
    every dump: the `# t=` header, then the x templates filled one block at a
    time with one `%` operation, so one block of text is held at a time."""
    fh.write(f"# t={t:.17g}\n")
    for k, template in enumerate(templates):
        block = values[k * _DUMP_ROWS:(k + 1) * _DUMP_ROWS]
        fh.write(template % tuple(block.tolist()))


def _main(path: str, n: int) -> None:
    """Body of the writer process: the dump that arrives on stdin, to `path`.
    The t=0 record is taken off the pipe before the templates are built, so
    that on a grid whose x and record outgrow the pipe the run does not wait
    for them."""
    stdin = sys.stdin.buffer
    x, record = stdin.read(8 * n), stdin.read(8 * (n + 1))
    templates = _templates(array.array("d", x))
    with open(path, "w") as fh:
        while record:
            values = array.array("d", record)
            _write_dump(fh, templates, values[0], values[1:])
            record = stdin.read(8 * (n + 1))


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))
