"""Acting on models, and recognizing inner endomorphisms.

A canonical element acts on any target model once images for the generators
are chosen: substitute the images for y1..yn and the argument for x.
Conversely, given an endomorphism of the free model by its generator images,
the witness search decides whether a single element induces it.
"""

from quandles import (
    QUANDLE,
    RACK,
    QuandleElem,
    RackElem,
    apply_hom,
    apply_inner,
    inner_witness,
    parse,
    render,
    term_equal,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Applying an element along generator images")
elem = QuandleElem((("y1", 1),))
print(f"  element x |> y1 with images [y2], applied to y1:")
print(f"    {render(apply_inner(elem, [parse('y2', 2)], parse('y1', 2)))}")
relem = RackElem(1, ())
print(f"  rack element x |> x (no generators), applied to y1:")
print(f"    {render(apply_inner(relem, [], parse('y1', 1)))}")

show("An endomorphism given by images: is it inner?")
images = [parse("y1 |> y2", 2), parse("y2 |> y2", 2)]
print(f"  y1 -> {render(images[0])}, y2 -> {render(images[1])}")
witness = inner_witness(images, 2, QUANDLE)
print(f"  witness element: {witness}")
print("  so both images are plain right-multiplication by y2")

show("The generator swap is an automorphism but not inner")
swap = [parse("y2", 2), parse("y1", 2)]
print(f"  y1 -> y2, y2 -> y1: witness = {inner_witness(swap, 2, QUANDLE)}")
print(f"  rack version: witness = {inner_witness(swap, 2, RACK)}")

show("Naturality: acting commutes with pushing forward")
elem = QuandleElem((("y2", 1), ("y1", -1)))
h_images = [parse("y2 |> y3", 3), parse("y1", 3)]            # into 3 generators
hp_images = [parse("y2", 2), parse("y1 |> y1", 2), parse("y2 |>~ y1", 2)]  # back to 2
q = parse("y3 |> y1", 3)
lhs = apply_hom(apply_inner(elem, h_images, q), hp_images)
rhs = apply_inner(elem, [apply_hom(im, hp_images) for im in h_images], apply_hom(q, hp_images))
print(f"  push(act(q)) = {render(lhs)}")
print(f"  act(push(q)) = {render(rhs)}")
print(f"  equal in the free quandle: {term_equal(lhs, rhs, QUANDLE)}")
