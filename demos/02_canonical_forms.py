"""Classifying the invertible, generically-commuting term classes.

Over the alphabet {x, y1..yn} some terms act as automorphisms on every model
when substituted into: they form a group.  For quandles these are exactly the
chains x |>^e1 y_i1 ... |>^em y_im with reduced suffix word; for racks a block
of self-applications x |>^d x ... comes first.  This script canonicalizes
terms, multiplies the resulting elements, and shows the two structure maps.
"""

from quandles import (
    QUANDLE,
    RACK,
    QuandleElem,
    RackElem,
    canon,
    elem_to_term,
    enumerate_terms,
    invert,
    mul,
    parse,
    quandle_embed,
    rack_embed,
    render,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Which terms denote invertible generic classes?")
for text in ["x", "(x |> y1) |>~ y2", "y1 |> x", "x |> y1 |> x", "(x |> y1) |> (y2 |>~ y2)"]:
    t = parse(text, 2)
    is_q = canon(t, QUANDLE)
    is_r = canon(t, RACK)
    print(f"  {text:28} quandle: {is_q if is_q else 'no'}")
    print(f"  {'':28} rack:    {is_r if is_r else 'no'}")

show("Multiplication is substitution into x")
a = QuandleElem((("y1", 1),))
b = QuandleElem((("y2", 1),))
ab = mul(a, b)
print(f"  a   = {render(elem_to_term(a))}")
print(f"  b   = {render(elem_to_term(b))}")
print(f"  a*b = {render(elem_to_term(ab))}   (suffix words concatenate reversed)")
print(f"  a * a^-1 = {mul(a, invert(a))}")

show("Rack elements carry an integer: the self-application count")
g = RackElem(1, (("y1", 1),))
h = RackElem(2, (("y2", 1),))
print(f"  g   = {render(elem_to_term(g))}")
print(f"  h   = {render(elem_to_term(h))}")
print(f"  g*h = {render(elem_to_term(mul(g, h)))}")

show("Structure maps: free group in, canonical element out")
print(f"  quandle_embed(y1 y2)   = {quandle_embed((('y1', 1), ('y2', 1)))}")
print(f"  rack_embed(3, e)       = {rack_embed(3, ())}")
print("  the quandle map is an isomorphism; the rack map reverses products")

show("With no generators the group collapses")
quandle_elems = {canon(t, QUANDLE) for t in enumerate_terms(("x",), 7)} - {None}
rack_elems = {canon(t, RACK) for t in enumerate_terms(("x",), 7)} - {None}
print(f"  quandle elements over x-terms of size <= 7: {len(quandle_elems)}"
      f" (identity only: {quandle_elems == {QuandleElem()}})")
print(f"  rack elements found: z = {sorted(e.z for e in rack_elems)} -- integers under addition")
