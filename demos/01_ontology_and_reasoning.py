#!/usr/bin/env python3
"""Parse the bundled health ontology, inspect it, and run the reasoner.

Walks through the first half of the toolkit: loading an ontology from OWL
functional syntax, computing structural metrics, saturating it with the rule
engine, asking membership questions, explaining a derived fact, and seeing
how consistency violations are reported.

Run from the repository root:

    python3 demos/01_ontology_and_reasoning.py
"""

from pathlib import Path

from ontomap import (
    ClassAssertion,
    IsA,
    Name,
    add_axiom,
    classify,
    compute_metrics,
    explain,
    instances_of,
    parse_file,
    saturate,
)

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "obesity-sample.ofn"


def main():
    result = parse_file(FIXTURE)
    assert not result.errors, result.errors
    onto = result.ontology
    print(f"Loaded {onto.ontology_id}")

    print("\n-- structural metrics --")
    for key, value in compute_metrics(onto).items():
        print(f"  {key}: {value}")

    print("\n-- saturation --")
    store = saturate(onto)
    print(f"  {len(store.facts)} facts inferred, "
          f"{len(store.violations)} violations")

    treatment = Name("", "Treatment")
    members = sorted(str(i) for i in instances_of(store, treatment))
    print(f"\n-- members of {treatment} --")
    for m in members:
        print(f"  {m}")

    print("\n-- why is Obesity a MedicalCondition? --")
    node = explain(store, IsA(Name("", "Obesity"), Name("", "MedicalCondition")))

    def show(n, depth=0):
        print("  " * (depth + 1) + f"{n.fact}  [{n.rule}]")
        for p in n.premises:
            show(p, depth + 1)

    show(node)

    print("\n-- direct superclasses (transitive reduction) --")
    tax = classify(store)
    for cls in sorted(tax.direct_supers):
        supers = tax.direct_supers[cls]
        if supers:
            print(f"  {cls} -> {', '.join(str(s) for s in sorted(supers))}")

    print("\n-- injecting a contradiction --")
    bad = add_axiom(onto, ClassAssertion(Name("", "Medication"),
                                         Name("", "LowCalorieDiet")))
    for v in saturate(bad).violations:
        involved = ", ".join(str(n) for n in v.involved)
        print(f"  {v.kind}: {involved}")


if __name__ == "__main__":
    main()
