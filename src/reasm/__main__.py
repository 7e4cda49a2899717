"""The process entry point: `python -m reasm` and the `reasm` console
script both call `main`.

Its one `try` covers the import of the command line and every module it
loads as well as the verb, so Ctrl-C from the first line of reasm code on
prints `error: interrupted` and exits 130.  Only the interpreter's own
start-up runs before it.  In-process callers of `cli.main` see the
KeyboardInterrupt raised, as from any other library call.
"""

import sys


def main(argv=None) -> int:
    try:
        from . import cli
        return cli.main(argv)
    except KeyboardInterrupt:
        # an interrupt raised inside exec or eval of a string, as in the code
        # that dataclasses and namedtuple generate at import, leaves CPython
        # set to end a `python -m` process by SIGINT after main returns;
        # running a string clears that
        exec("")
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
