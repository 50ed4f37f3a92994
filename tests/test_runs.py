"""The run loop ``runs.integrate`` on a toy scalar ODE, y' = -y, stepped by forward Euler.

Each observation returns the state's row (t, y) and a ``Box`` holding its rate; ``rate`` copies it into a new
``Box``, and ``advance`` takes the Euler step. The runners' own contracts (notes, rows, final states) are
pinned in ``test_flow_ode`` and ``test_exact_torus``; these tests pin the loop they share, the ``Trace`` it
returns and its two rules, the step budget and the step floor that ``flow_step``'s halving also reads.
"""

import weakref
from dataclasses import dataclass

import pytest

from grflow import exact_torus, flow_ode, runs
from grflow.errors import (DegenerateMetric, NonFiniteRecord, NumericalError, RetractionDiverged, StepBudgetExhausted,
                           StepUnderflow, ValidationError)
from grflow.runs import integrate


@dataclass(frozen=True)
class State:
    t: float
    y: float


class Box:  # an observation or a rate; a plain class, so a weakref can watch it
    def __init__(self, value):
        self.value = value


class Toy:
    """The observe, rate, step_cap and advance of y' = -y with step ``cap``; a row is (t, y), ``finite`` the columns
    it must hold finite."""

    def __init__(self, cap=0.3, finite=("t", "y")):
        self.cap, self.finite = cap, finite

    def observe(self, st):
        return (st.t, st.y), Box(-st.y)

    def rate(self, here):
        return Box(here.value)

    def step_cap(self, here):
        return self.cap

    def advance(self, st, dt, k1):
        return State(st.t + dt, st.y + dt * k1.value)

    def run(self, T=1.0, max_steps=100, state=State(0.0, 1.0)):
        return integrate(state, T, max_steps, ("t", "y"), self.finite, self.observe, self.rate, self.step_cap,
                         self.advance)


def test_run_lands_on_T():
    tr = Toy(cap=0.3).run(T=1.0)
    final = tr.final_state
    assert tr.aborted is None and tr.columns == ("t", "y")
    assert final.t == 1.0 and tr.rows[-1] == (final.t, final.y)
    assert tr["t"] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)
    y = 1.0
    for dt in (0.3, 0.3, 0.3, 0.1):
        y += dt * -y
    assert final.y == pytest.approx(y, rel=1e-14) and tr["y"][-1] == final.y


def test_state_within_the_landing_tolerance_takes_no_step():
    tr = Toy().run(T=1.0, state=State(1.0 - 5e-13, 1.0))
    assert tr.aborted is None and tr.rows == [(1.0 - 5e-13, 1.0)] and tr.final_state.t == 1.0 - 5e-13


def test_budget_note_comes_with_one_row_more_than_the_budget():
    tr = Toy(cap=0.01).run(T=1.0, max_steps=3)
    assert tr.aborted == str(StepBudgetExhausted(3, tr.final_state.t, 1.0))
    assert len(tr.rows) == 4 and tr.final_state.t == pytest.approx(0.03)


def test_budget_exactly_enough_reaches_T():
    tr = Toy(cap=0.25).run(T=1.0, max_steps=4)
    assert tr.aborted is None and tr.final_state.t == 1.0 and len(tr.rows) == 5


def test_step_below_the_floor_is_underflow():
    tr = Toy(cap=1e-15).run(T=1.0)
    assert tr.aborted == "step underflow at t = 0.0"
    assert tr.rows == [(0.0, 1.0)] and tr.final_state.t == 0.0


def test_step_that_leaves_t_unmoved_is_underflow():
    # at t = 1e6 the spacing of floats is 1.16e-10: a step of 1e-11, above the floor, would leave t where it is
    tr = Toy(cap=1e-11).run(T=1e6 + 1, state=State(1e6, 1.0))
    assert tr.aborted == "step underflow at t = 1000000.0"
    assert tr.rows == [(1e6, 1.0)] and tr.final_state.t == 1e6


def test_halving_run_reaches_the_step_floor():
    # an advance that rejects every step and halves it, as flow_step does, stops at the loop's own floor and
    # note: 0.25 / 2^44 is the last step at or above 1e-14
    toy = Toy(cap=0.25)
    tried = []

    def halving(st, dt, k1):
        while True:
            runs.check_step(dt, st.t)
            tried.append(dt)
            dt /= 2

    toy.advance = halving
    tr = toy.run(T=1.0)
    assert tr.aborted == "step underflow at t = 0.0" and tr.final_state.t == 0.0 and len(tr.rows) == 1
    assert len(tried) == 45 and tried[-1] >= runs.STEP_FLOOR > tried[-1] / 2


def test_flow_step_halves_down_to_the_runs_floor(monkeypatch, su2_double, graph_metric_123):
    # flow_step's halving reads the floor of runs: with every retraction failing, a floor of 0.1 stops a
    # step of 1 after four tries (1, 0.5, 0.25, 0.125), with the loop's note
    monkeypatch.setattr(runs, "STEP_FLOOR", 0.1)
    tries = []

    def fails(g, tol):
        tries.append(1)
        raise RetractionDiverged("planted")

    monkeypatch.setattr(flow_ode, "involution_retract", fails)
    state = flow_ode.FlowState(0.0, graph_metric_123.G)
    with pytest.raises(StepUnderflow, match=r"^step underflow at t = 0\.0$"):
        flow_ode.flow_step(su2_double, state, flow_ode.FlowParams(dt=1.0), 1.0, flow_ode.flow_rhs(su2_double, state.G))
    assert len(tries) == 4


@pytest.mark.parametrize("max_steps", [0, -3, float("nan")])
def test_both_parameter_sets_keep_the_one_budget_rule(max_steps):
    for params in (flow_ode.FlowParams, exact_torus.TorusParams):
        with pytest.raises(ValidationError) as exc_info:
            params(max_steps=max_steps)
        assert str(exc_info.value) == f"max_steps must be at least 1, got {max_steps!r}"


def test_error_in_advance_returns_the_last_state_and_its_note():
    toy = Toy(cap=0.25)
    step, steps = toy.advance, []

    def fails_third(st, dt, k1):
        steps.append(st)
        if len(steps) == 3:
            raise DegenerateMetric(f"planted at t = {st.t}")
        return step(st, dt, k1)

    toy.advance = fails_third
    tr = toy.run(T=1.0)
    assert tr.aborted == "planted at t = 0.5"
    assert tr.final_state is steps[-1] and tr.final_state.t == 0.5 and tr["t"] == [0.0, 0.25, 0.5]


def test_error_in_a_later_observe_returns_the_state_it_observed():
    # the state whose observation raised has no row: final_state is past the last one
    toy = Toy(cap=0.25)
    seen, observed = toy.observe, []

    def fails_second(st):
        observed.append(st)
        if len(observed) == 2:
            raise NumericalError(f"planted at t = {st.t}")
        return seen(st)

    toy.observe = fails_second
    tr = toy.run(T=1.0)
    assert tr.aborted == "planted at t = 0.25" and tr.final_state is observed[1] and tr.rows == [(0.0, 1.0)]


def test_error_in_the_first_observe_propagates():
    toy = Toy()

    def fails(st):
        raise DegenerateMetric("planted on the initial state")

    toy.observe = fails
    with pytest.raises(DegenerateMetric, match="planted on the initial state"):
        toy.run()


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_row_ends_the_run_unrecorded(bad):
    # an advance that lands on a non-finite y at t = 0.5: the row there is rejected, like an observation that
    # raised, with a note naming the column and t; a column left out of ``finite`` may hold any value
    toy = Toy(cap=0.25)
    toy.advance = lambda st, dt, k1: State(st.t + dt, bad if st.t + dt == 0.5 else st.y)
    tr = toy.run(T=1.0)
    assert tr.aborted == f"non-finite y = {bad} at t = 0.5" and tr.final_state.t == 0.5
    assert tr.rows == [(0.0, 1.0), (0.25, 1.0)]
    toy.finite = ("t",)
    tr = toy.run(T=1.0)
    assert tr.aborted is None and repr(tr["y"][2]) == repr(bad)


def test_non_finite_initial_row_raises():
    with pytest.raises(NonFiniteRecord, match=r"^non-finite y = nan at t = 0\.0$"):
        Toy().run(state=State(0.0, float("nan")))


def test_observation_and_rate_are_released_before_the_next_ones():
    # the loop holds an observation only until its rate is taken, and the rate only until the step is:
    # inside advance no observation is alive, and inside observe no rate
    toy = Toy(cap=0.25)
    refs = {}
    seen, rate, step = toy.observe, toy.rate, toy.advance

    def observe(st):
        assert refs.get("k1", lambda: None)() is None
        row, here = seen(st)
        refs["here"] = weakref.ref(here)
        return row, here

    def rate_of(here):
        k1 = rate(here)
        refs["k1"] = weakref.ref(k1)
        return k1

    def advance(st, dt, k1):
        assert refs["here"]() is None
        return step(st, dt, k1)

    toy.observe, toy.rate, toy.advance = observe, rate_of, advance
    tr = toy.run(T=1.0)
    assert tr.aborted is None and len(tr.rows) == 5
