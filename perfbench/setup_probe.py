"""Set-up as a user pays it: a fresh interpreter imports pgflow (numpy and
scipy with it) and builds every config of the workload.

Usage: python3 setup_probe.py SRC_DIR CONFIG...
"""

import sys


def main(argv) -> int:
    sys.path.insert(0, argv[0])
    from pgflow import cli, config  # noqa: F401  (cli pulls in every module)

    for path in argv[1:]:
        config.load_config(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
