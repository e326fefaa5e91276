"""Record the golden polynomials the benchmark checks every request against.

    python3 perfbench/record_golden.py

Computes each small_levels key at the default precision policy and the two
level-71 polynomials, checks them against the independent class-number
oracle, the published level-71 polynomials and the highprec_eta path, and
writes perfbench/golden.json.  Run it only on a commit whose outputs are
known to be right; the file is the reference later commits are held to.
"""

import json

import workloads


def main() -> None:
    cfq = workloads.import_cfq()
    high = cfq.PrecisionPolicy(start_bits=workloads.HIGHPREC_START_BITS)
    small = {}
    for key in workloads.small_level_keys():
        coeffs = list(cfq.ring_class_polynomial(*key).poly.coeffs)
        if coeffs[-1] != 1 or len(coeffs) - 1 != workloads.class_number(key[2]):
            raise SystemExit(f"{key}: {coeffs} is not monic of degree h")
        if key[0] != 1 and list(cfq.ring_class_polynomial(*key, high).poly.coeffs) != coeffs:
            raise SystemExit(f"{key}: the {high.start_bits}-bit path disagrees")
        small[workloads.key_text(key)] = coeffs
    paper71 = {}
    for disc, published in workloads.PUBLISHED_71.items():
        coeffs = list(cfq.ring_class_polynomial(71, "fricke", disc).poly.coeffs)
        if tuple(coeffs) != published:
            raise SystemExit(f"level 71, disc {disc}: {coeffs} is not the published polynomial")
        paper71[str(disc)] = coeffs
    sections = []
    for name, table in (("paper71", paper71), ("small_levels", small)):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
        sections.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    text = "{\n" + ",\n".join(sections) + "\n}\n"
    workloads.GOLDEN_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.GOLDEN_FILE.name}: {len(small)} small_levels keys, 2 level-71 polys")


if __name__ == "__main__":
    main()
