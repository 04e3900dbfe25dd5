"""Tests for simulated thread teams."""

import pytest

from repro.sim import Environment
from repro.threads import ThreadTeam


def launch(env, team, body):
    """One process per team thread, as the benchmark approaches start them."""
    return [env.process(body(tid)) for tid in range(team.n_threads)]


def test_barrier_synchronizes_team():
    env = Environment()
    team = ThreadTeam(env, 3)
    exits = []

    def body(tid):
        yield env.timeout(tid * 5.0)
        yield from team.barrier()
        exits.append(env.now)

    launch(env, team, body)
    env.run()
    assert exits == [10.0, 10.0, 10.0]


def test_barrier_cost_is_charged():
    env = Environment()
    team = ThreadTeam(env, 2, barrier_cost=1.5)

    def body(tid):
        yield from team.barrier()
        return env.now

    procs = launch(env, team, body)
    env.run()
    assert all(p.value == 1.5 for p in procs)


def test_repeated_barriers_across_iterations():
    env = Environment()
    team = ThreadTeam(env, 2)
    log = []

    def body(tid):
        for it in range(3):
            yield from team.barrier()
            if tid == 0:
                log.append(it)
            yield from team.barrier()

    launch(env, team, body)
    env.run()
    assert log == [0, 1, 2]
    assert team.barrier_count == 12  # 2 threads x 3 iters x 2 barriers


def test_single_thread_team():
    env = Environment()
    team = ThreadTeam(env, 1)

    def body(tid):
        yield from team.barrier()
        return "done"

    procs = launch(env, team, body)
    env.run()
    assert procs[0].value == "done"


def test_invalid_team_size():
    with pytest.raises(ValueError):
        ThreadTeam(Environment(), 0)
