"""Make each listed ``cli.run`` call once and print this process's peak RSS in KiB.

    python3 perfbench/rss_child.py <src-dir> <calls.json>

The calls file is a JSON list of argv lists whose instance files already
exist, so the process only imports the package, reads files and decides.
"""

import json
import resource
import sys


def peak_rss_kib() -> int:
    """High-water RSS of this process image.

    Linux folds the parent's peak into ``ru_maxrss`` across fork and exec, so
    a child of a large benchmark process would report the parent's size; the
    VmHWM line of /proc/self/status counts this image alone. ``ru_maxrss`` is
    the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from abovetight import cli

    with open(sys.argv[2], encoding="utf-8") as handle:
        argvs = json.load(handle)
    for argv in argvs:
        cli.run(argv)
    print(peak_rss_kib())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
