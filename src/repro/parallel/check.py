"""Multi-property model checking across worker processes.

``hsis check design.mv props.pif --jobs N`` (and ``mc --jobs N`` inside
the shell) shard the PIF property list: each CTL property is an
independent task that rebuilds the symbolic machine from the picklable
flat :class:`~repro.blifmv.ast.Model`, binds the (unbound, picklable)
fairness declarations, and runs the ordinary
:class:`~repro.ctl.modelcheck.ModelChecker`.  Verdicts are therefore
exactly the serial ones — each worker runs the same code the shell
would — only the wall-clock schedule changes.

A property whose worker fails is surfaced as an explicit ``ERROR``
verdict (``holds=None``) carrying the envelope's failure status and
trace; it is never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ctl.ast import Formula
from repro.ctl.modelcheck import ModelChecker
from repro.network.fsm import SymbolicFsm
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import (
    STATUS_ERROR,
    STATUS_OK,
    ResultEnvelope,
    Task,
    TaskResult,
)
from repro.perf import EngineStats
from repro.trace.tracer import Tracer


@dataclass
class PropertyVerdict:
    """Outcome of one property check, worker failures included."""

    name: str
    formula: str
    holds: Optional[bool]  # None when the worker failed
    seconds: float
    status: str  # an envelope status: ok | error | timeout | crashed
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def format(self) -> str:
        if self.holds is None:
            return f"mc {self.name}: ERROR ({self.status})  [{self.formula}]"
        verdict = "passed" if self.holds else "FAILED"
        return (
            f"mc {self.name}: {verdict} ({self.seconds:.2f}s)  "
            f"[{self.formula}]"
        )


def _check_property_worker(model, name: str, formula: Formula,
                           fairness_decls, trace: bool = False,
                           order=None) -> TaskResult:
    """Worker body: one machine, one fairness binding, one property.

    ``order`` optionally forces an explicit variable order (a cached
    portfolio winner, or a race candidate); verdicts are order-independent.
    """
    from repro.pif.parser import PifFile

    fsm = SymbolicFsm(model, tracer=Tracer() if trace else None,
                      order=list(order) if order is not None else None)
    fairness = None
    if fairness_decls:
        fairness = PifFile(fairness=list(fairness_decls)).bind_fairness(fsm)
    checker = ModelChecker(fsm, fairness=fairness)
    result = checker.check(formula)
    detached = EngineStats()
    detached.merge(fsm.stats)  # drops the (unpicklable) kernel handle
    return TaskResult(
        {"name": name, "holds": result.holds, "seconds": result.seconds},
        detached,
    )


def _verdict_from_envelope(
    name: str, formula: Formula, envelope: ResultEnvelope
) -> PropertyVerdict:
    if envelope.ok:
        payload = envelope.value
        return PropertyVerdict(
            name=name,
            formula=str(formula),
            holds=payload["holds"],
            seconds=payload["seconds"],
            status=STATUS_OK,
        )
    return PropertyVerdict(
        name=name,
        formula=str(formula),
        holds=None,
        seconds=envelope.seconds,
        status=envelope.status,
        error=envelope.error,
    )


def check_properties(
    model,
    properties: Sequence[Tuple[str, Formula]],
    fairness_decls=(),
    jobs: int = 1,
    stats: Optional[EngineStats] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    pool: Optional[WorkerPool] = None,
    order=None,
) -> List[PropertyVerdict]:
    """Check every ``(name, formula)`` pair; results in property order.

    With ``jobs <= 1`` (or a single property) everything runs in this
    process; otherwise each property becomes a pool task.  ``order``
    forces an explicit variable order on every machine built (used by
    the ordering portfolio's warm order-cache path).
    """
    properties = list(properties)
    trace = stats is not None and stats.tracer.enabled
    if (pool is None and jobs <= 1) or len(properties) < 2:
        verdicts = []
        for name, formula in properties:
            try:
                result = _check_property_worker(
                    model, name, formula, fairness_decls, trace, order)
            except Exception as exc:
                verdicts.append(
                    PropertyVerdict(
                        name=name, formula=str(formula), holds=None,
                        seconds=0.0, status=STATUS_ERROR, error=str(exc),
                    )
                )
                continue
            if stats is not None and result.stats is not None:
                stats.merge(result.stats)
            verdicts.append(
                PropertyVerdict(
                    name=name,
                    formula=str(formula),
                    holds=result.value["holds"],
                    seconds=result.value["seconds"],
                    status=STATUS_OK,
                )
            )
        return verdicts
    job_tasks = [
        Task(
            task_id=f"mc[{name}]",
            fn=_check_property_worker,
            args=(model, name, formula, tuple(fairness_decls), trace,
                  list(order) if order is not None else None),
            timeout=timeout,
        )
        for name, formula in properties
    ]
    if pool is None:
        pool = WorkerPool(
            jobs, timeout=timeout, retries=retries,
            tracer=stats.tracer if stats is not None else None,
        )
    envelopes = pool.run(job_tasks)
    verdicts = []
    for (name, formula), envelope in zip(properties, envelopes):
        if stats is not None and envelope.stats is not None:
            stats.merge(envelope.stats)
        verdicts.append(_verdict_from_envelope(name, formula, envelope))
    return verdicts
