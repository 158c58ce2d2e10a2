"""SMT-LIB2 plumbing: the term and script model (`terms`), and the bundled
solver for the query fragment the pipeline emits (`solver`, `sat`, served by
`cli`), which reads only the commands and operators the verifier writes.
The verifier only builds and prints terms; the solver modules are imported
by the process that serves queries."""

from solverify.smt.terms import Script, Term, parse_script, sexpr  # noqa: F401
