"""Largest relative differences between the outputs of two snpp runs.

    python3 scripts/diff_outputs.py DIR_A DIR_B

Each directory holds what one `snpp` run wrote: study.csv,
coefficients.txt and manifest.json of a converge run, diagnostics.csv
and the *.vtk snapshots of a macro or micro run.  A file is compared
when both directories hold it; held by one only, it exits 2.  For every
column of study.csv and diagnostics.csv and every key of
coefficients.txt the script prints the largest relative difference
|a - b| / max(|a|, |b|) over its entries: 0 where both values are equal
(both nan included) and inf where only one is nan.  Next to it, for the
columns of the two tables, it prints max|a - b| over the column divided
by the largest |value| of the column in either run, so an entry near
zero next to large ones does not read as large; entries nan in both runs
are left out, and a nan in one run only gives inf.  A column or key
whose entries are round-off of a larger quantity is measured in both
figures against the largest |value| of that quantity in either run: the
diagnostics charge against the mass, the coefficients D12 against D11
and D22, and K12 against K11 and K22.  For every array of the VTK files
(the points, the cells and each field) it prints the largest of the
column-scaled difference over the files.  When both manifests carry a
"profile", it prints every count of a task that differs between them,
as TASK/COUNT with the two values, or "profile same"; the measurements
that vary from run to run, the timers (keys ending in _s) and the peak
memory (peak_rss_mb), are left out.  When both manifests carry a "config" (the
resolved configuration of the run), it prints every BLOCK.KEY whose
value differs between them, with the two values as compact JSON ("-"
where a run has no such key), or "config same"; output.directory is
left out.  It exits 1 when the
"flags" or the "monotone" of the two manifests differ, and 0 otherwise;
a table whose header or row count differs between the two runs, a VTK
array whose size differs, a key present in one coefficients.txt only, or
no file to compare exits 2.  A header or a key set that differs is
reported with the columns or keys that only one run holds ("none" on
both sides: the same columns in another order), a row count with both
counts.  A header that differs still prints the columns that both runs
hold, and every other file is still compared before the exit.
"""

import csv
import json
import math
import os
import sys

import numpy as np

# The columns and keys measured against others: their entries vanish up
# to round-off next to those of the others.
SCALED_BY = {"charge": ("mass",), "D12": ("D11", "D22"),
             "K12": ("K11", "K22")}


def relative_difference(a, b, scale=None):
    """|a - b| / max(|a|, |b|), or over scale when it is given and not 0;
    0 for equal values and inf for one nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / (scale or max(abs(a), abs(b)))


def array_difference(a, b, scale=None):
    """max|a - b| / max(|a|, |b|) over two arrays, or over scale when it
    is given and not 0; 0 when they are equal; entries nan in both are
    left out, and one nan gives inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if np.any(nan_a != nan_b):
        return math.inf
    a, b = a[~nan_a], b[~nan_b]
    return float(np.max(np.abs(a - b))
                 / (scale or max(np.max(np.abs(a)), np.max(np.abs(b)))))


def largest_magnitude(names, *tables):
    """The largest |value| of the named entries over the given runs,
    each a dict of key to value or to a list of values; None when no run
    holds any of them."""
    values = [abs(value) for table in tables for name in names
              if name in table for value in np.ravel(table[name])]
    return max(values, default=None)


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(value) for value in row] for row in rows[1:]]


def read_coefficients(path):
    out = {}
    with open(path) as handle:
        for line in handle:
            key, _, text = line.strip().partition("=")
            if key and not key.startswith("#"):
                out[key] = float(text)
    return out


# Profile keys that measure a run rather than count its work.
MEASURED = ("_s", "peak_rss_mb")


def compare_profiles(first, second):
    """Print each count of a task whose value differs between the two
    profiles (absent counts as "-"), leaving out the MEASURED keys."""
    differ = False
    for task in sorted(first.keys() | second.keys()):
        counts_a, counts_b = first.get(task, {}), second.get(task, {})
        for key in sorted(counts_a.keys() | counts_b.keys()):
            a, b = counts_a.get(key, "-"), counts_b.get(key, "-")
            if not key.endswith(MEASURED) and a != b:
                differ = True
                print("manifest.json %s/%s %s %s" % (task, key, a, b))
    if not differ:
        print("manifest.json profile same")


def flat_config(config):
    """The config echo as {"BLOCK.KEY": value}, with a top-level entry
    that is not a block under its own name."""
    flat = {}
    for name, entry in config.items():
        if isinstance(entry, dict):
            flat.update(("%s.%s" % (name, key), value)
                        for key, value in entry.items())
        else:
            flat[name] = entry
    return flat


def compare_configs(first, second):
    """Print each entry of the config echo whose value differs between
    the two manifests (absent shows as "-"), leaving out the output
    directory."""
    flat_a, flat_b = flat_config(first), flat_config(second)
    differ = False
    for key in sorted((flat_a.keys() | flat_b.keys()) - {"output.directory"}):
        a, b = (json.dumps(flat[key], separators=(",", ":"))
                if key in flat else "-" for flat in (flat_a, flat_b))
        if a != b:
            differ = True
            print("manifest.json %s %s %s" % (key, a, b))
    if not differ:
        print("manifest.json config same")


def read_vtk(path):
    """Arrays of a legacy ASCII VTK file as snpp writes it, by name: the
    points, the cells and every point or cell field."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    arrays = {}
    size = 0
    i = 0
    while i < len(lines):
        words = lines[i].split()
        i += 1
        if not words:
            continue
        if words[0] in ("POINT_DATA", "CELL_DATA"):
            size = int(words[1])
            continue
        if words[0] in ("POINTS", "CELLS"):
            name, count = words[0].lower(), int(words[1])
        elif words[0] in ("SCALARS", "VECTORS"):
            name, count = words[1], size
            if words[0] == "SCALARS":
                i += 1  # LOOKUP_TABLE
        else:
            continue
        arrays[name] = np.array(" ".join(lines[i:i + count]).split(),
                                dtype=float)
        i += count
    return arrays


def report_one_sided(name, what, keys_a, keys_b):
    """Print the keys that only the first or only the second run holds."""
    only = [", ".join(key for key in mine if key not in other) or "none"
            for mine, other in ((keys_a, keys_b), (keys_b, keys_a))]
    print("%s: %s only in the first run: %s; only in the second: %s"
          % (name, what, *only), file=sys.stderr)


def compare_table(name, first, second):
    """Print the two figures of every column that both runs hold; False
    when their headers or row counts differ."""
    header, rows_a = read_table(first)
    other_header, rows_b = read_table(second)
    if header != other_header:
        report_one_sided(name, "columns", header, other_header)
    if len(rows_a) != len(rows_b):
        print("%s: %d rows in the first run, %d in the second"
              % (name, len(rows_a), len(rows_b)), file=sys.stderr)
        return False
    columns_a, columns_b = ({column: [row[k] for row in rows]
                             for k, column in enumerate(columns)}
                            for columns, rows in ((header, rows_a),
                                                  (other_header, rows_b)))
    for column in header:
        if column not in columns_b:
            continue
        scale = largest_magnitude(SCALED_BY.get(column, ()), columns_a,
                                  columns_b)
        worst = max((relative_difference(a, b, scale)
                     for a, b in zip(columns_a[column], columns_b[column])),
                    default=0.0)
        scaled = array_difference(columns_a[column], columns_b[column],
                                  scale)
        print("%s %-20s %.3e %.3e" % (name, column, worst, scaled))
    return header == other_header


def compare_coefficients(name, first, second):
    coeffs_a, coeffs_b = read_coefficients(first), read_coefficients(second)
    if coeffs_a.keys() != coeffs_b.keys():
        report_one_sided(name, "keys", coeffs_a, coeffs_b)
        return False
    for key in coeffs_a:
        scale = largest_magnitude(SCALED_BY.get(key, ()), coeffs_a,
                                  coeffs_b)
        print("%s %-13s %.3e"
              % (name, key, relative_difference(coeffs_a[key],
                                                coeffs_b[key], scale)))
    return True


def compare_vtk(names, first, second):
    worst = {}
    for name in names:
        arrays_a = read_vtk(os.path.join(first, name))
        arrays_b = read_vtk(os.path.join(second, name))
        if arrays_a.keys() != arrays_b.keys() or any(
                arrays_a[key].shape != arrays_b[key].shape
                for key in arrays_a):
            print("%s: the arrays or their sizes differ" % name,
                  file=sys.stderr)
            return False
        for key in arrays_a:
            worst[key] = max(worst.get(key, 0.0),
                             array_difference(arrays_a[key], arrays_b[key]))
    for key, value in worst.items():
        print("vtk %-20s %.3e" % (key, value))
    return True


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    first, second = argv
    held = [{name for name in os.listdir(directory)
             if name in ("study.csv", "diagnostics.csv", "coefficients.txt",
                         "manifest.json") or name.endswith(".vtk")}
            for directory in argv]
    if held[0] != held[1] or not held[0]:
        print("the two directories hold different files, or none to "
              "compare: %s" % sorted(held[0] ^ held[1]), file=sys.stderr)
        return 2
    # A table or a key set that differs is reported and the comparison
    # goes on, so the shared columns and the verdict still print.
    alike = True
    for name, compare in (("study.csv", compare_table),
                          ("diagnostics.csv", compare_table),
                          ("coefficients.txt", compare_coefficients)):
        if name in held[0]:
            alike = compare(name, os.path.join(first, name),
                            os.path.join(second, name)) and alike
    snapshots = sorted(name for name in held[0] if name.endswith(".vtk"))
    if not compare_vtk(snapshots, first, second):
        return 2
    if "manifest.json" not in held[0]:
        return 0 if alike else 2
    manifests = []
    for directory in argv:
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifests.append(json.load(handle))
    if all("profile" in manifest for manifest in manifests):
        compare_profiles(manifests[0]["profile"], manifests[1]["profile"])
    if all("config" in manifest for manifest in manifests):
        compare_configs(manifests[0]["config"], manifests[1]["config"])
    verdicts = [{key: manifest.get(key) for key in ("flags", "monotone")}
                for manifest in manifests]
    for key in ("flags", "monotone"):
        same = verdicts[0][key] == verdicts[1][key]
        print("manifest.json %-16s %s" % (key, "same" if same else "DIFFERS"))
    if not alike:
        return 2
    return 0 if verdicts[0] == verdicts[1] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
