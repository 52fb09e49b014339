"""Task-based dataflow runtime system (OmpSs / Nanos++ analogue).

The runtime exposes the same concepts the paper relies on:

* typed **data regions** with ``in`` / ``out`` / ``inout`` access annotations
  (:mod:`repro.runtime.data`);
* **tasks** and **task types** (:mod:`repro.runtime.task`);
* a **dependence system** that orders tasks by their declared accesses and
  builds the task dependence graph (:mod:`repro.runtime.dependences`,
  :mod:`repro.runtime.graph`);
* the **scheduler**: one central FIFO ready queue
  (:mod:`repro.runtime.scheduler`);
* five executors: a serial one, a real-thread one, a multiprocess
  shared-memory one, a network one and a deterministic discrete-event
  multicore simulator (:mod:`repro.runtime.executor`,
  :mod:`repro.runtime.mp_executor`, :mod:`repro.runtime.net_executor`,
  :mod:`repro.runtime.simulator`, selected by registry name via
  :func:`repro.runtime.executor.build_executor`; see DESIGN.md §4) — the
  two that run task bodies elsewhere share one remote-task core
  (:mod:`repro.runtime.remote_task`, :mod:`repro.runtime.dispatch`);
* an execution **trace recorder** used to regenerate the paper's Figures 7
  and 8 (:mod:`repro.runtime.trace`).

The user-facing programming surface is :class:`repro.session.Session`.
"""
