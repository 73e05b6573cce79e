"""Nonlocal games toolkit.

Exact statevector statistics for local X/Y/Z measurements (`quantum`), a
catalog of parity games on a four-qubit entangled state (`games`), exact
classical-value solvers over local hidden variable strategies
(`classical`), and a trial harness (`trials`) with both an in-process and
a distributed referee, one process per player, that bounds each party's
join and each read (`netplay`). The package re-exports nothing: import
each name from the module that defines it, as in
`from nonlocalgames.games import four_party_game`.
"""
