"""FastPass: TDM non-overlapping bufferless bypass lanes (the paper's
primary contribution).

Public pieces:

* :class:`~repro.core.schedule.TdmSchedule` — partitions, slots, phases,
  prime-router rotation (Sec. III-C1);
* :class:`~repro.core.fastflow.FastFlowEngine` — bufferless traversals
  along the lanes (XY out, YX back; Fig. 1/Fig. 4) with per-link
  time-window reservations, ejection-queue reservation and the bounce
  protocol (Secs. III-B, III-C4, III-C5);
* :class:`~repro.core.manager.FastPassManager` — prime-router packet
  scanning/upgrading and the dynamic bubble (Sec. III-C2/C4);
* :mod:`repro.core.irregular` — partition derivation for arbitrary
  topologies via Eulerian-circuit segmentation (Sec. III-F).
"""

from repro.core.schedule import TdmSchedule
from repro.core.fastflow import FastFlowEngine
from repro.core.manager import FastPassManager
from repro.core import irregular

__all__ = [
    "TdmSchedule",
    "FastFlowEngine",
    "FastPassManager",
    "irregular",
]
