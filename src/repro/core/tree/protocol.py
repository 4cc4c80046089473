"""Wire protocol of the communication-tree counter.

Four message kinds implement §4's counter:

* ``inc`` — an increment request climbing toward the root.  Carries the
  originating leaf's id and the key of the node role it is meant for.
* ``value`` — the root's answer, sent directly to the originating leaf.
* ``handoff`` — one of the ``k+2`` (``k+3`` for the root) messages a
  retiring worker sends its successor: the new job, the parent id, the
  ``k`` child ids (and the counter value for the root).  Each fits in
  O(log n) bits, as the paper requires.
* ``id-update`` — a retiring worker telling the node's parent and children
  where the role now lives.

Role addressing: messages meant for a role carry its key — an inner
node's ``("node", level, index)``, a leaf's ``("leaf", pid)`` — so a
processor playing several roles (leaf + inner + root is possible by
design) can dispatch, and so a processor that no longer plays the role
can forward the message to its successor — the "proper handshaking
protocol with a constant number of extra messages" the paper appeals to.
Inside a processor an inner node is its level-order number;
:meth:`~repro.core.tree.geometry.TreeGeometry.encode` builds its key at
send and :meth:`~repro.core.tree.geometry.TreeGeometry.decode` reads it
back on receipt.
"""

from __future__ import annotations

KIND_INC = "inc"
KIND_VALUE = "value"
KIND_HANDOFF = "handoff"
KIND_ID_UPDATE = "id-update"
