"""Relation storage — the shared substrate of the evaluation engines.

The model layer (:class:`repro.model.instance.Instance`), the Datalog engine
(:mod:`repro.engine`), and the algebra evaluator (:mod:`repro.algebra`) all
read and write relations through the :class:`Relation` class defined here.  A
``Relation`` stores the rows of one relation as a set of path tuples, with
cached zero-copy read views and one *lazy, generation-invalidated* index by
exact argument path.  See DESIGN.md for the
storage layout.

The columnar layer (:mod:`repro.storage.columnar`) adds the id space the
engine's joins run on: a per-instance :class:`TermTable` interning every path
into a dense integer id, and a packed :class:`ColumnarView` per relation
generation with the hash groupings the join steps probe.
"""

from repro.storage.columnar import ColumnarView, TermTable
from repro.storage.relation import EMPTY_ROWS, Relation

__all__ = [
    "EMPTY_ROWS",
    "ColumnarView",
    "Relation",
    "TermTable",
]
