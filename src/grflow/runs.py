"""The run loop of ``flow_ode.run_flow`` and ``exact_torus.run_torus_flow``."""

from .errors import NumericalError, StepBudgetExhausted, StepUnderflow


def integrate(state, T, max_steps, observe, rate, step_cap, advance):
    """Run ``state``, which has a time ``t``, to T and return (the last state reached, the abort note or None).

    ``observe(state)`` records the state's row; with ``here`` its result, a step is dt = min(step_cap(here),
    T - t) and ``advance(state, dt, rate(here))``. The first numerical error after the initial observation
    stops the run, and its message is the abort note; an error in the initial observation propagates.
    """
    here = observe(state)
    rows = 1
    try:
        while state.t < T - 1e-12:
            if rows > max_steps:  # a row per accepted step and one for the initial state
                raise StepBudgetExhausted(max_steps, state.t, T)
            dt = min(step_cap(here), T - state.t)
            if dt < 1e-14:
                raise StepUnderflow(f"step underflow at t = {state.t}")
            k1 = rate(here)
            del here  # the step's stages make their own observations; keeping this one raises peak memory
            state = advance(state, dt, k1)
            del k1  # likewise, before the next observation and its rate
            here = observe(state)
            rows += 1
    except NumericalError as exc:
        return state, str(exc)
    return state, None
