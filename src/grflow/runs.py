"""The run loop of ``flow_ode.run_flow`` and ``exact_torus.run_torus_flow``, the record both return, and the rules
both runs keep."""

import math
from dataclasses import dataclass

from .errors import NonFiniteRecord, NumericalError, StepBudgetExhausted, StepUnderflow, ValidationError

STEP_FLOOR = 1e-14  # no run takes a shorter step


def check_max_steps(max_steps) -> None:
    """The run budget's rule, for every run's parameters: at least one accepted step (NaN has none)."""
    if not max_steps >= 1:
        raise ValidationError(f"max_steps must be at least 1, got {max_steps!r}")


def check_positive_finite(**values) -> None:
    """The rule for every run's real parameters, given by name in order: the first not in (0, inf) raises (NaN is not)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def check_step(dt: float, t: float) -> None:
    """The step floor: a step dt from time t below STEP_FLOOR, or too short to move t (t + dt == t), raises
    StepUnderflow."""
    if dt < STEP_FLOOR or t + dt == t:
        raise StepUnderflow(f"step underflow at t = {t}")


@dataclass
class Trace:
    """A run's record: one row per accepted state, its values in ``columns`` order, and how the run ended.

    ``aborted`` is None when the run reached T and otherwise says why not; ``final_state`` is the last state
    reached. ``trace[name]`` is one column as a list.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    aborted: str | None
    final_state: object

    def __getitem__(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def integrate(state, T, max_steps, columns, finite, observe, rate, step_cap, advance) -> Trace:
    """Run ``state``, which has a time ``t``, to T and return its ``Trace``.

    ``observe(state)`` returns the state's row, in ``columns`` order, and ``here``; a step is dt =
    min(step_cap(here), T - t), held to ``check_step``'s floor, and ``advance(state, dt, rate(here))``. A row
    with inf or NaN in a column named in ``finite`` is rejected: its observation raises NonFiniteRecord. The
    first numerical error after the initial observation stops the run, and its message is the abort note; an
    error in the initial observation propagates.
    """
    checked = [(i, name) for i, name in enumerate(columns) if name in finite]

    def record(st):
        row, here = observe(st)
        for i, name in checked:
            if not math.isfinite(row[i]):
                raise NonFiniteRecord(f"non-finite {name} = {row[i]} at t = {st.t}")
        return row, here

    row, here = record(state)
    rows, aborted = [row], None
    try:
        while state.t < T - 1e-12:
            if len(rows) > max_steps:  # a row per accepted step and one for the initial state
                raise StepBudgetExhausted(max_steps, state.t, T)
            dt = min(step_cap(here), T - state.t)
            check_step(dt, state.t)
            k1 = rate(here)
            del here  # the step's stages make their own observations; keeping this one raises peak memory
            state = advance(state, dt, k1)
            del k1  # likewise, before the next observation and its rate
            row, here = record(state)
            rows.append(row)
    except NumericalError as exc:
        aborted = str(exc)
    return Trace(columns, rows, aborted, state)
