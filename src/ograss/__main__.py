"""The process entry of ``python -m ograss`` and of the ``ograss`` script.

``entry`` loads the command line with the cyclic garbage collector off,
``gc.freeze()``s every object that loading left tracked, and turns the
collector back on.  Importing numpy and ``cli`` makes tens of thousands of
container objects that live until the process ends, so each collector
pass during the load (32 of them with Python 3.11 and numpy 2.4) walks
objects it cannot free; frozen, no later pass walks them either, while the
commands still run with the collector on.  It then restores the default
SIGPIPE action, so that a stdout closed early ends the process quietly, as
it ends ``cat`` (status 141 in the shell), and runs ``cli.main``.  It
freezes once more, so that the full collections of interpreter shutdown
skip what the command left tracked (0.3 to 0.9 ms of a 6 ms shutdown on a
2-core machine, with the first freeze in place), and exits with main's code.

``import ograss``, ``cli.main`` and every library call leave the collector
and the signal actions alone, so tests and library callers run them in
process.  ``os._exit`` is not used, because it would skip the flush of
stdout and the atexit handlers.
"""

import gc
import signal


def entry(argv=None):
    """Load ``cli`` with the collector off, then run ``cli.main`` and exit with its code (see the module docstring)."""
    gc.disable()
    try:
        from . import cli
    finally:
        gc.freeze()
        gc.enable()
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process as it ends cat (POSIX only)
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = cli.main(argv)
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
