"""``python -m repro.native``: can this process load the compiled kernels?

Exit status 0 when the library loaded; 1, with the one-line reason,
when it did not.
"""

from __future__ import annotations

import sys

from repro import native


def main() -> int:
    try:
        native.load()
    except native.Unavailable as error:
        print(f"error: {error}")
        return 1
    print(f"kernels: compiled library {native.path}")
    print(f"threads: {native.push_threads(1 << 30)} per batch push "
          f"(this process's CPUs, at most one per row)")
    print(f"build:   {native.compiler()} {' '.join(native.FLAGS)} "
          f"-o <cache>/kernels-<hash>.so {native.SOURCE}")
    print(f"cache:   {native.cache_dir()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
