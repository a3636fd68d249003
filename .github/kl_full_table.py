"""Fill a full KL table and check its smooth count, stored entries and distinct values.

Usage: python .github/kl_full_table.py TYPE CAP SMOOTH ENTRIES VALUES

Every orbit column of the group's KL table is filled in index order.
An element is rationally smooth when every value of its column is 1,
which the table stores as value id 0.  The stored entries are the
length of the table's flat store, which must equal the sum of its
column counts.  Prints the count, the stored entries and the distinct
values, and exits 1 unless they are SMOOTH, ENTRIES and VALUES; stdlib
only, run with PYTHONPATH=src.
"""

import sys

from weylpat.kl import _table_for
from weylpat.roots import build_root_system
from weylpat.weyl import WeylGroup

cartan_type, cap = sys.argv[1], int(sys.argv[2])
expected = tuple(map(int, sys.argv[3:6]))
wg = WeylGroup.for_system(build_root_system(cartan_type), cap)
table = _table_for(wg)
smooth = sum(not any(table.ensure_column(v)[1]) for v in range(wg.size))
entries = len(table.keys)
if sum(table.count) != entries or len(table.key_ids) != entries:
    sys.exit(f"the store holds {entries} keys, but its columns count {sum(table.count)}")
print(f"{cartan_type}: {smooth} rationally smooth of {wg.size}; "
      f"{entries} stored entries, {len(table.values)} distinct values")
sys.exit((smooth, entries, len(table.values)) != expected)
