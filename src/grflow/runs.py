"""The run loop of ``flow_ode.run_flow`` and ``exact_torus.run_torus_flow``, and the rules both runs keep."""

from .errors import NumericalError, StepBudgetExhausted, StepUnderflow, ValidationError

STEP_FLOOR = 1e-14  # no run takes a shorter step


def check_max_steps(max_steps) -> None:
    """The run budget's rule, for every run's parameters: at least one accepted step (NaN has none)."""
    if not max_steps >= 1:
        raise ValidationError(f"max_steps must be at least 1, got {max_steps!r}")


def check_step(dt: float, t: float) -> None:
    """The step floor: a step dt from time t below STEP_FLOOR raises StepUnderflow."""
    if dt < STEP_FLOOR:
        raise StepUnderflow(f"step underflow at t = {t}")


def integrate(state, T, max_steps, observe, rate, step_cap, advance):
    """Run ``state``, which has a time ``t``, to T and return (the last state reached, the abort note or None).

    ``observe(state)`` records the state's row; with ``here`` its result, a step is dt = min(step_cap(here),
    T - t), held to ``check_step``'s floor, and ``advance(state, dt, rate(here))``. The first numerical error
    after the initial observation stops the run, and its message is the abort note; an error in the initial
    observation propagates.
    """
    here = observe(state)
    rows = 1
    try:
        while state.t < T - 1e-12:
            if rows > max_steps:  # a row per accepted step and one for the initial state
                raise StepBudgetExhausted(max_steps, state.t, T)
            dt = min(step_cap(here), T - state.t)
            check_step(dt, state.t)
            k1 = rate(here)
            del here  # the step's stages make their own observations; keeping this one raises peak memory
            state = advance(state, dt, k1)
            del k1  # likewise, before the next observation and its rate
            here = observe(state)
            rows += 1
    except NumericalError as exc:
        return state, str(exc)
    return state, None
