"""The cores a run may use, and the OpenBLAS libraries that compete for them.

Two paths put a second core to work: the experiment harness forks one
worker per usable core, and the integer edge-list parser converts numbers
on a helper thread.  Both go by `usable()`.  OpenBLAS's worker threads spin
on the other cores for a while after each threaded call, so both stop them
(or pin them) first, through the handles of `openblas()`.
"""

import ctypes
import functools
import os
import threading

# thread-count getter and setter of the OpenBLAS builds numpy and scipy ship
# (64-bit and 32-bit integers)
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def openblas():
    """(get, set, shutdown) of each loaded OpenBLAS.

    get and set read and write its thread count.  shutdown stops its worker
    threads, as OpenBLAS's own handler does before every fork; its next
    threaded call starts them again.  Found through /proc/self/maps; empty
    where that file or the symbols are missing.  Libraries stay loaded, so
    the lookup is made once.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for names in _OPENBLAS_THREADS:
            names += ("blas_thread_shutdown_",)
            if all(hasattr(lib, name) for name in names):
                get, set_, shutdown = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                found.append((get, set_, shutdown))
                break
    return tuple(found)


def usable():
    """How many cores this process may put to work: its usable cores
    (os.sched_getaffinity, so `taskset -c 0` gives one), or 1 while other
    threads run in it or no OpenBLAS handles are found.

    Another thread may be inside a BLAS call, whose workers must not be
    stopped under it, and a forked child holds only the forking thread: a
    lock another thread held at the fork would never be released there.
    """
    if threading.active_count() > 1 or not openblas():
        return 1
    return len(os.sched_getaffinity(0))
