"""The mutant ledger: one mutant per bug this repository has met.

A :class:`Mutant` re-creates a bug as one exact-text substitution in one
``src/`` file.  ``python -m tests.mutants.run`` applies each mutant to a
scratch copy of the tree, runs tier-1 there, and writes
``tests/data/mutant_kills.json``: the tier-1 ids that fail under each
mutant and pass unmutated (its *killers*).  A mutant with no killer is a
bug the suite no longer catches.

Every bug fix adds its mutant here in the same change, and a test id
retires only when the ledger shows that its mutants keep other killers
(DESIGN.md §7).  ``tests/unit/test_mutants.py`` checks, in tier-1, that
every anchor still occurs exactly once and that the committed ledger
names a killer for every mutant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    anchor: str        # exact text, occurring exactly once in ``path``
    replacement: str
    origin: str        # the commit whose bug (or guard) it re-creates

    def anchor_count(self) -> int:
        return (ROOT / self.path).read_text().count(self.anchor)

    def apply(self, root: Path) -> str:
        """Mutate the copy of the tree at ``root``; returns the original
        text of the file."""
        path = root / self.path
        text = path.read_text()
        path.write_text(text.replace(self.anchor, self.replacement))
        return text


MUTANTS = (
    Mutant("drain-rotation-keeps-vacated-slots", "src/repro/schemes/drain.py",
           "        for router in routers:\n"
           "            router.occupied = [s for s in router.occupied\n"
           "                               if s.pkt is not None]\n",
           "",
           "97a4ee7: a refilled slot listed twice in its router's "
           "occupied list"),
    Mutant("pitstop-bypass-dequeues", "src/repro/schemes/pitstop.py",
           "                ni.take(q, pkt, now)\n",
           "                ni.dequeue(q, pkt)\n",
           "027c87a: the injection-queue bypass neither counts nor emits "
           "the injection"),
    Mutant("cache-corrupt-entry-raises", "src/repro/campaign/cache.py",
           "        except (FileNotFoundError, ValueError, KeyError, "
           "TypeError):\n",
           "        except FileNotFoundError:\n",
           "6c56bd3: a malformed entry raises instead of missing"),
    Mutant("cache-trailing-bytes-hit", "src/repro/campaign/cache.py",
           "    if text[end:].strip(\" \\t\\n\\r\"):\n"
           "        raise ValueError(f\"{path}: extra data after the "
           "result\")\n",
           "",
           "6c56bd3: stray bytes after line 1 read as a hit"),
    Mutant("config-period-below-one", "src/repro/config.py",
           "            if getattr(self, field_name) < 1:\n"
           "                raise ValueError(f\"{field_name} must be at "
           "least 1\")\n",
           "            pass\n",
           "67a16ae: a hook period below 1, where the engines disagree"),
    Mutant("transfer-keeps-waiters", "src/repro/network/router.py",
           "                                if slot.waiters is not None:\n"
           "                                    slot.vacate(end + 1)\n",
           "",
           "e21e6f2, caught since 3cd7d2e: the inlined transfer loses "
           "its slot's credit waiters (a lost wakeup)"),
    Mutant("tfc-ready-at-behind-fill", "src/repro/schemes/tfc.py",
           "                    ready_at = now + 1\n"
           "                    break\n"
           "        super()._transfer(slot, pkt, link, dslot, now, "
           "ready_at)\n",
           "                    break\n"
           "        super()._transfer(slot, pkt, link, dslot, now, "
           "ready_at)\n"
           "        if free >= 2:\n"
           "            dslot.ready_at = now + 1\n",
           "db99e1e: the express hop lowers ready_at behind the router's "
           "wake bound"),
    Mutant("suspended-cycle-keeps-ni-bounds", "src/repro/network/network.py",
           "            for nid in self._inj_active:\n"
           "                nis[nid].retry_at = 0\n",
           "            pass\n",
           "db99e1e: an NI waits on a local VC that DRAIN's rotation "
           "refilled"),
    Mutant("xy-routing-reads-column-parity", "src/repro/network/routing.py",
           "    \"xy\": route_xy,\n",
           "    \"xy\": lambda mesh, rid, dst: (\n"
           "        route_xy if mesh.xy(rid)[0] % 2 == 0 else route_yx)(\n"
           "            mesh, rid, dst),\n",
           "526578b: a routing function the route table cannot serve "
           "(it reads more than the direction signs)"),
    Mutant("eject-skips-consume-wake", "src/repro/network/router.py",
           "        net._con_active.add(self.id)\n",
           "",
           "cac7f83: an ejection that leaves its NI out of the consume "
           "phase"),
)
