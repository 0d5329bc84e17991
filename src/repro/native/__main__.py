"""``python -m repro.native``: which kernels would this process use?

Exit status 0 when the selection is the one asked for — the compiled
library loaded, or ``REPRO_NATIVE=0`` chose the fallback; 1 when the
process wanted the compiled kernels and fell back.
"""

from __future__ import annotations

import sys
import warnings

from repro import native


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # said below
        lib = native.load()
    if lib is not None:
        print(f"kernels: native (compiled library {native.path})")
    else:
        print(f"kernels: python/numpy fallback ({native.reason})")
    print(f"switch:  REPRO_NATIVE=0 forces the fallback (now: "
          f"{'forced' if native.DISABLED else 'not set'})")
    try:
        print(f"build:   {native.compiler()} {' '.join(native.FLAGS)} "
              f"-o <cache>/kernels-<hash>.so {native.SOURCE}")
        print(f"cache:   {native.cache_dir()}")
    except native.Unavailable as error:
        print(f"build:   unavailable ({error})")
    return 0 if lib is not None or native.DISABLED else 1


if __name__ == "__main__":
    sys.exit(main())
