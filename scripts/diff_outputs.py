"""Largest relative differences between the outputs of two converge runs.

    python3 scripts/diff_outputs.py DIR_A DIR_B

Each directory holds the study.csv, coefficients.txt and manifest.json
that one `snpp converge` run wrote.  For every column of study.csv and
every key of coefficients.txt the script prints the largest relative
difference |a - b| / max(|a|, |b|) over its entries: 0 where both values
are equal (both nan included) and inf where only one is nan.  It exits
1 when the "flags" or the "monotone" of the two manifests differ, and 0
otherwise; a study.csv whose header or row count differs between the
two runs, or a key present in one coefficients.txt only, exits 2.
"""

import csv
import json
import math
import os
import sys


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|), 0 for equal values and inf for one nan."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def read_study(directory):
    with open(os.path.join(directory, "study.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(value) for value in row] for row in rows[1:]]


def read_coefficients(directory):
    out = {}
    with open(os.path.join(directory, "coefficients.txt")) as handle:
        for line in handle:
            key, _, text = line.strip().partition("=")
            if key and not key.startswith("#"):
                out[key] = float(text)
    return out


def read_verdict(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    return {key: manifest.get(key) for key in ("flags", "monotone")}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    first, second = argv
    header, rows_a = read_study(first)
    other_header, rows_b = read_study(second)
    if header != other_header or len(rows_a) != len(rows_b):
        print("study.csv: the header or the row count differs",
              file=sys.stderr)
        return 2
    for k, name in enumerate(header):
        worst = max((relative_difference(a[k], b[k])
                     for a, b in zip(rows_a, rows_b)), default=0.0)
        print("study.csv %-20s %.3e" % (name, worst))
    coeffs_a, coeffs_b = read_coefficients(first), read_coefficients(second)
    if coeffs_a.keys() != coeffs_b.keys():
        print("coefficients.txt: the keys differ", file=sys.stderr)
        return 2
    for key in coeffs_a:
        print("coefficients.txt %-13s %.3e"
              % (key, relative_difference(coeffs_a[key], coeffs_b[key])))
    verdicts = read_verdict(first), read_verdict(second)
    for key in ("flags", "monotone"):
        same = verdicts[0][key] == verdicts[1][key]
        print("manifest.json %-16s %s" % (key, "same" if same else "DIFFERS"))
    return 0 if verdicts[0] == verdicts[1] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
