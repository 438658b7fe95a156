"""Deciding equality of closed terms in free racks and quandles.

Every closed term translates into free-group data; two terms are provably
equal exactly when their translations agree.  This script walks through the
translations and shows where the rack and quandle theories differ.
"""

from quandles import QUANDLE, RACK, parse, render, quandle_image, rack_image, term_equal
from quandles import words


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Translating terms into the free group")
for text in ["x", "x |> y1", "(x |> y1) |>~ y1", "x |> (y1 |> y2)"]:
    t = parse(text, 2)
    print(f"  {render(t):24} ->  {words.render(quandle_image(t))}")

show("The rack translation keeps a head letter and a tail word")
for text in ["x", "x |> x", "x |> x |> y1", "y1 |>~ x"]:
    head, tail = rack_image(parse(text, 1))
    print(f"  {text:24} ->  head {head}, tail {words.render(tail)}")

show("Idempotence holds for quandles but not racks")
a, b = parse("y1 |> y1", 1), parse("y1", 1)
print(f"  quandle: {render(a)} = {render(b)}?  {term_equal(a, b, QUANDLE)}")
print(f"  rack:    {render(a)} = {render(b)}?  {term_equal(a, b, RACK)}")

show("Cancellation and self-distributivity hold in both theories")
pairs = [
    ("(x |> y1) |>~ y1", "x"),
    ("(x |>~ y1) |> y1", "x"),
    ("(x |> y1) |> y2", "(x |> y2) |> (y1 |> y2)"),
]
for left, right in pairs:
    s, t = parse(left, 2), parse(right, 2)
    print(f"  {left} = {right}")
    print(f"      quandle {term_equal(s, t, QUANDLE)}, rack {term_equal(s, t, RACK)}")

show("Equal terms can look very different")
s = parse("((x |> y1) |> y2) |>~ y2", 2)
t = parse("x |> y1", 2)
print(f"  {render(s)} = {render(t)}?  {term_equal(s, t, QUANDLE)} (both theories: {term_equal(s, t, RACK)})")
