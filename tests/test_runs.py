"""The run loop ``runs.integrate`` on a toy scalar ODE, y' = -y, stepped by forward Euler.

Each observation records a row and returns a ``Box`` holding the state's rate; ``rate`` copies it into a new
``Box``, and ``advance`` takes the Euler step. The runners' own contracts (notes, rows, final states) are
pinned in ``test_flow_ode`` and ``test_exact_torus``; these tests pin the loop they share.
"""

import weakref
from dataclasses import dataclass

import pytest

from grflow.errors import DegenerateMetric, NumericalError, StepBudgetExhausted
from grflow.runs import integrate


@dataclass(frozen=True)
class State:
    t: float
    y: float


class Box:  # an observation or a rate; a plain class, so a weakref can watch it
    def __init__(self, value):
        self.value = value


class Toy:
    """The observe, rate, step_cap and advance of y' = -y with step ``cap``, recording each observed state."""

    def __init__(self, cap=0.3):
        self.cap = cap
        self.rows = []

    def observe(self, st):
        self.rows.append(st)
        return Box(-st.y)

    def rate(self, here):
        return Box(here.value)

    def step_cap(self, here):
        return self.cap

    def advance(self, st, dt, k1):
        return State(st.t + dt, st.y + dt * k1.value)

    def run(self, T=1.0, max_steps=100, state=State(0.0, 1.0)):
        return integrate(state, T, max_steps, self.observe, self.rate, self.step_cap, self.advance)


def test_run_lands_on_T():
    toy = Toy(cap=0.3)
    final, note = toy.run(T=1.0)
    assert note is None
    assert final.t == 1.0 and toy.rows[-1] is final
    assert [row.t for row in toy.rows] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)
    y = 1.0
    for dt in (0.3, 0.3, 0.3, 0.1):
        y += dt * -y
    assert final.y == pytest.approx(y, rel=1e-14)


def test_state_within_the_landing_tolerance_takes_no_step():
    toy = Toy()
    final, note = toy.run(T=1.0, state=State(1.0 - 5e-13, 1.0))
    assert note is None and len(toy.rows) == 1 and final.t == 1.0 - 5e-13


def test_budget_note_comes_with_one_row_more_than_the_budget():
    toy = Toy(cap=0.01)
    final, note = toy.run(T=1.0, max_steps=3)
    assert note == str(StepBudgetExhausted(3, final.t, 1.0))
    assert len(toy.rows) == 4 and final.t == pytest.approx(0.03)


def test_budget_exactly_enough_reaches_T():
    toy = Toy(cap=0.25)
    final, note = toy.run(T=1.0, max_steps=4)
    assert note is None and final.t == 1.0 and len(toy.rows) == 5


def test_step_below_the_floor_is_underflow():
    toy = Toy(cap=1e-15)
    final, note = toy.run(T=1.0)
    assert note == "step underflow at t = 0.0"
    assert len(toy.rows) == 1 and final.t == 0.0


def test_error_in_advance_returns_the_last_state_and_its_note():
    toy = Toy(cap=0.25)
    step = toy.advance

    def fails_third(st, dt, k1):
        if len(toy.rows) == 3:
            raise DegenerateMetric(f"planted at t = {st.t}")
        return step(st, dt, k1)

    toy.advance = fails_third
    final, note = toy.run(T=1.0)
    assert note == "planted at t = 0.5"
    assert final is toy.rows[-1] and final.t == 0.5


def test_error_in_a_later_observe_returns_the_state_it_observed():
    toy = Toy(cap=0.25)
    seen = toy.observe

    def fails_second(st):
        if toy.rows:
            raise NumericalError(f"planted at t = {st.t}")
        return seen(st)

    toy.observe = fails_second
    final, note = toy.run(T=1.0)
    assert note == "planted at t = 0.25" and final.t == 0.25 and len(toy.rows) == 1


def test_error_in_the_first_observe_propagates():
    toy = Toy()

    def fails(st):
        raise DegenerateMetric("planted on the initial state")

    toy.observe = fails
    with pytest.raises(DegenerateMetric, match="planted on the initial state"):
        toy.run()


def test_observation_and_rate_are_released_before_the_next_ones():
    # the loop holds an observation only until its rate is taken, and the rate only until the step is:
    # inside advance no observation is alive, and inside observe no rate
    toy = Toy(cap=0.25)
    refs = {}
    seen, rate, step = toy.observe, toy.rate, toy.advance

    def observe(st):
        assert refs.get("k1", lambda: None)() is None
        here = seen(st)
        refs["here"] = weakref.ref(here)
        return here

    def rate_of(here):
        k1 = rate(here)
        refs["k1"] = weakref.ref(k1)
        return k1

    def advance(st, dt, k1):
        assert refs["here"]() is None
        return step(st, dt, k1)

    toy.observe, toy.rate, toy.advance = observe, rate_of, advance
    final, note = toy.run(T=1.0)
    assert note is None and len(toy.rows) == 5
