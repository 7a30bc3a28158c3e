import gc
import os
import sys


def main() -> int:
    """The pavcal command.  pavcal makes no BLAS call, and OpenBLAS starting
    its thread pool took about 70 of numpy's 250 ms import on a 2-core
    host, so one thread is asked for unless the user set a number.  The
    heap is frozen once the command has returned: exit then collects none of it."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
