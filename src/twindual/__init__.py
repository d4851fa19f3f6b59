"""twindual: reflection representations of the twin group, partial Brauer
diagram algebras, and desk-scale certification of their duality."""
