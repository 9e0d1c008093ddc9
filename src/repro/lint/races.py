"""Yield-point atomicity checker — races across cooperative suspensions.

The simulated substrate has no preemption: a generator's code between
two ``yield`` points executes atomically, and *everything* else — other
server processes, middleware monitors, SCM callbacks — runs only while
it is suspended.  That is the property the whole experimental method
leans on (a run is a controlled experiment precisely because
interleaving is confined to suspension points), and it cuts both ways:
any state shared between coroutines is fair game for mutation at every
``yield``, so a value carried *across* a suspension is stale by
construction.

This rule finds the two shapes that break under that model:

**Lost update** — a shared location is read into a local before a
suspension and written back from that local after it::

    count = self.request_count
    yield from k32.Sleep(100)          # others run here
    self.request_count = count + 1     # clobbers their updates

**Check-then-act** — a branch condition reads shared state, the body
suspends, and only then acts on the (possibly stale) check::

    if self.worker is None:
        handle = yield from k32.CreateEventA(...)
        self.worker = handle           # a second spawner got here first

Shared locations are instance attributes (``self.*``), state reachable
from the per-process context (``ctx.*`` / ``machine.*``), and module
globals.  Re-reading the location in the same post-suspension segment
as the write counts as re-validation and silences the finding — the
cooperative model makes everything inside one segment atomic, so a
``self.x = self.x + 1`` after the yield is an honest read-modify-write.

Both findings carry fix-it suggestions; the engine's segment CFG
(:mod:`repro.lint.engine`) does the heavy lifting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import Finding, ParsedModule, Rule
from .engine import Access, GeneratorCFG, chain_text

RULE = "yield-race"


def _revalidated(cfg: GeneratorCFG, write: Access) -> bool:
    """A read of the written chain in the write's own segment means the
    code re-fetched the value after the last suspension."""
    return any(access.kind == "read" and access.chain == write.chain
               and access.segment == write.segment
               and not access.in_test
               for access in cfg.accesses)


def _rechecked(cfg: GeneratorCFG, write: Access) -> bool:
    """A *test* read in the write's segment re-checks the condition."""
    return any(access.kind == "read" and access.chain == write.chain
               and access.segment == write.segment and access.in_test
               for access in cfg.accesses)


class YieldRaceRule(Rule):
    name = RULE
    description = ("shared state read before a yield point must not be "
                   "acted on after it without re-validation")

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        index = module.index
        findings: list[Finding] = []
        for info in index.generators():
            cfg = index.cfg(info.qualname)
            findings.extend(self._check_cfg(module, info.qualname, cfg))
        return findings

    # ------------------------------------------------------------------
    def _check_cfg(self, module: ParsedModule, qualname: str,
                   cfg: GeneratorCFG) -> Iterator[Finding]:
        if not cfg.suspensions:
            return
        reported: set[tuple] = set()

        # --- check-then-act ------------------------------------------
        for branch in cfg.branches:
            if not branch.suspends:
                continue
            start, end = branch.access_range
            for access in cfg.accesses[start:end]:
                if access.kind not in ("write", "mutate"):
                    continue
                if access.chain not in branch.test_chains:
                    continue
                if access.segment <= branch.test_segment:
                    continue
                if _rechecked(cfg, access):
                    continue
                key = (access.line, access.chain)
                if key in reported:
                    continue
                reported.add(key)
                location = chain_text(access.chain)
                verb = ("written" if access.kind == "write"
                        else "mutated")
                yield Finding(
                    RULE, module.path, access.line,
                    f"{location} is checked in the enclosing {branch.kind} "
                    f"test but only {verb} after a yield point — other "
                    f"processes run at the suspension, so the check can be "
                    f"stale by the time this statement acts on it "
                    f"(check-then-act)",
                    symbol=qualname,
                    suggestion=f"re-validate {location} after the last "
                               f"yield before acting, or restructure so "
                               f"check and act share a segment")

        # --- lost update via a captured local ------------------------
        for access in cfg.accesses:
            if access.kind != "write":
                continue
            key = (access.line, access.chain)
            if key in reported:
                continue
            hazard = access.cross_aug
            if not hazard:
                for capture in cfg.captures:
                    if capture.chain != access.chain:
                        continue
                    if capture.local not in access.rhs_locals:
                        continue
                    if capture.segment < access.segment:
                        hazard = True
                # A fresher capture in the write's own segment means the
                # value was re-fetched after the suspension.
                if hazard and any(
                        capture.chain == access.chain
                        and capture.segment == access.segment
                        for capture in cfg.captures):
                    hazard = False
            if not hazard or _revalidated(cfg, access):
                continue
            reported.add(key)
            location = chain_text(access.chain)
            detail = ("the augmented assignment itself suspends between "
                      "its read and its write"
                      if access.cross_aug else
                      "the value crosses the suspension in a local")
            yield Finding(
                RULE, module.path, access.line,
                f"{location} is read before a yield point and written "
                f"back after it — {detail}; updates made by other "
                f"processes during the suspension are silently lost "
                f"(lost update)",
                symbol=qualname,
                suggestion=f"re-read {location} after resuming (an "
                           f"in-segment read-modify-write is atomic), or "
                           f"move the update before the yield")
