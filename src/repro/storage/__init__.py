"""Indexed relation storage — the shared substrate of the evaluation engines.

The model layer (:class:`repro.model.instance.Instance`), the Datalog engine
(:mod:`repro.engine`), and the algebra evaluator (:mod:`repro.algebra`) all
read and write relations through the :class:`Relation` class defined here.  A
``Relation`` stores the rows of one relation as a set of path tuples and
maintains *lazy, generation-invalidated* secondary indexes (by exact argument
path, by ground first atom of an argument, by argument path length) together
with cached zero-copy read views.  See DESIGN.md for the storage layout and
the join-planning heuristics built on top of it.

The columnar layer (:mod:`repro.storage.columnar`) adds the id space the
compiled execution tier runs on: a per-instance :class:`TermTable` interning
every path into a dense integer id, and a packed :class:`ColumnarView` per
relation generation with id-space groupings mirroring the secondary indexes.
"""

from repro.storage.columnar import ColumnarView, TermTable
from repro.storage.relation import EMPTY_ROWS, Relation

__all__ = [
    "EMPTY_ROWS",
    "ColumnarView",
    "Relation",
    "TermTable",
]
