"""The process entry point: `python -m reasm` and the `reasm` console
script both call `main`.

Its one `try` covers the import of the command line and every module it
loads as well as the verb, so Ctrl-C from the first line of reasm code on
prints `error: interrupted` and exits 130.  Only the interpreter's own
start-up runs before it.  An interrupt raised where CPython cannot pass
it on, in a weakref callback or a `__del__` (importlib's module locks run
such a callback), reaches `sys.unraisablehook` instead, which `main`
holds while it runs: recorded there, it ends the run the same way, after
the import or after the verb.  In-process callers of `cli.main` see the
KeyboardInterrupt raised, as from any other library call.
"""

import sys


def main(argv=None) -> int:
    lost = []  # the interrupts CPython dropped as unraisable

    def unraisable(info):
        if issubclass(info.exc_type, KeyboardInterrupt):
            lost.append(info)
        else:
            report(info)

    report, sys.unraisablehook = sys.unraisablehook, unraisable
    try:
        from . import cli
        if not lost:
            code = cli.main(argv)
        if not lost:
            return code
    except KeyboardInterrupt:
        pass
    finally:
        sys.unraisablehook = report
    # an interrupt raised inside exec or eval of a string, as in the code
    # that dataclasses and namedtuple generate at import, leaves CPython set
    # to end a `python -m` process by SIGINT after main returns; running a
    # string clears that
    exec("")
    print("error: interrupted", file=sys.stderr)
    return 130


if __name__ == "__main__":
    sys.exit(main())
