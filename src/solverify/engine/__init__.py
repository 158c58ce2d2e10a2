"""Assertion discharge: invariant inference (`houdini`) and bounded model
checking (`bmc`), run by `verify`; the solver process interface (`smtio`),
which loads without them, since this package imports nothing."""
