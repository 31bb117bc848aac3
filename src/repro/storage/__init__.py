"""Relation storage — the shared substrate of the evaluation engines.

The model layer (:class:`repro.model.instance.Instance`), the Datalog engine
(:mod:`repro.engine`), and the algebra evaluator (:mod:`repro.algebra`) all
read and write relations through :class:`Relation`: the rows of one relation
as a set of path tuples, with a cached frozen read view.  Its id-space form
(:mod:`repro.storage.columnar`) is a per-instance :class:`TermTable` interning
every path into a dense integer id and a packed :class:`ColumnarView` per
relation generation, with the hash groupings that join steps and committed
reads probe.  See DESIGN.md for the storage layout.
"""

from repro.storage.columnar import ColumnarView, MaskedView, RowSources, TermTable
from repro.storage.relation import EMPTY_ROWS, Relation

__all__ = [
    "EMPTY_ROWS",
    "ColumnarView",
    "MaskedView",
    "Relation",
    "RowSources",
    "TermTable",
]
