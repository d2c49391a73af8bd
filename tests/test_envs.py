"""Tests for the Grid World and drone environments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs import (
    HIGH_DENSITY,
    LOW_DENSITY,
    MIDDLE_DENSITY,
    GridLayout,
    GridWorld,
    make_drone_env,
    make_gridworld,
)
from repro.envs.drone import (
    ActionSpace25,
    CorridorWorld,
    DepthCamera,
    DroneNavEnv,
    Rect,
    indoor_long,
    indoor_vanleer,
    wrap_angle,
)
from repro.envs.drone.expert import GreedyDepthExpert, collect_dataset
from repro.envs.gridworld import ACTION_DELTAS, FREE, GOAL, HELL, SOURCE
from repro.experiments.config import GridNNConfig


# --------------------------------------------------------------------------- #
# Reference Grid World step: the move / bump / cell branches written out.
# GridWorld.step and GridWorldBatch.step_many read one precomputed outcome
# table; this is the independent oracle both are checked against.
# --------------------------------------------------------------------------- #
def reference_grid_step(env, state, action):
    """``(next_state, reward, done, success)`` of ``action`` taken in ``state``."""
    d_row, d_col = ACTION_DELTAS[action]
    row, col = env.position_of(state)
    new_row, new_col = row + d_row, col + d_col
    bumped = False
    if not (0 <= new_row < env.height and 0 <= new_col < env.width):
        # Bumping into the boundary keeps the agent in place.
        new_row, new_col = row, col
        bumped = True
    next_state = env.state_index((new_row, new_col))
    cell = env.layout.cell(new_row, new_col)
    if cell == GOAL:
        return next_state, env.goal_reward, True, True
    if cell == HELL:
        return next_state, env.hell_reward, True, False
    reward = env.bump_reward if bumped else env.free_reward
    return next_state, reward, False, False


#: The tabular preset (the paper's {+1, -1, 0} rewards) and the NN training
#: preset (step and bump penalties).
GRID_REWARD_PRESETS = {
    "tabular": {},
    "nn": {"free_reward": GridNNConfig.free_reward, "bump_reward": GridNNConfig.bump_reward},
}


# --------------------------------------------------------------------------- #
# Reference ray caster: one Python loop per ray and per rectangle.  The
# environments cast rays only through CorridorWorld.ray_distances; these
# loops are the independent oracle it is checked against, bit for bit.
# --------------------------------------------------------------------------- #
def slab_ray_intersection(rect, ox, oy, dx, dy):
    """Distance along the ray to ``rect`` (slab method), or None on a miss."""
    t_min, t_max = -np.inf, np.inf
    for origin, direction, lo, hi in ((ox, dx, rect.x0, rect.x1), (oy, dy, rect.y0, rect.y1)):
        if abs(direction) < 1e-12:
            if origin < lo or origin > hi:
                return None
            continue
        t1 = (lo - origin) / direction
        t2 = (hi - origin) / direction
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return None
    if t_max < 0:
        return None
    return float(max(t_min, 0.0))


def boundary_distance(world, x, y, dx, dy):
    """Distance to the outer walls along a ray starting inside the world."""
    candidates = []
    if dx > 1e-12:
        candidates.append((world.length - x) / dx)
    elif dx < -1e-12:
        candidates.append(-x / dx)
    if dy > 1e-12:
        candidates.append((world.width - y) / dy)
    elif dy < -1e-12:
        candidates.append(-y / dy)
    positive = [c for c in candidates if c >= 0]
    return float(min(positive)) if positive else float("inf")


def reference_ray_distance(world, x, y, angle, max_range=30.0):
    dx, dy = float(np.cos(angle)), float(np.sin(angle))
    best = boundary_distance(world, x, y, dx, dy)
    for rect in world.obstacles:
        hit = slab_ray_intersection(rect, x, y, dx, dy)
        if hit is not None and hit < best:
            best = hit
    return float(min(best, max_range))


def reference_clearance(world, x, y, num_rays=16, max_range=10.0):
    angles = np.linspace(0.0, 2.0 * np.pi, num_rays, endpoint=False)
    return float(min(reference_ray_distance(world, x, y, a, max_range) for a in angles))


def reference_render(camera, world, x, y, heading):
    """(1, H, W) image filled column by column from per-ray depths."""
    depth = np.array(
        [reference_ray_distance(world, x, y, a, camera.max_range) for a in heading + camera._offsets]
    )
    inverse = 1.0 - np.clip(depth / camera.max_range, 0.0, 1.0)
    rows = np.arange(camera.height, dtype=np.float64)
    centre = (camera.height - 1) / 2.0
    vertical = np.abs(rows - centre) / max(centre, 1.0)
    image = np.zeros((camera.height, camera.width))
    for col in range(camera.width):
        filled = vertical <= 0.15 + 0.85 * inverse[col]
        image[filled, col] = inverse[col]
        image[~filled, col] = 0.1 * (1.0 - vertical[~filled])
    return image[None, :, :]


def reference_action_scores(expert, pose):
    """Expert scores by simulating one action at a time."""
    env, world = expert.env, expert.env.world
    x0, y0, heading = pose
    scores = np.zeros(env.actions.n_actions)
    for action in range(env.actions.n_actions):
        yaw_offset, forward = env.actions.command(action)
        new_heading = heading + yaw_offset
        step = forward / env.substeps
        x, y = x0, y0
        for _ in range(env.substeps):
            x = x + step * float(np.cos(new_heading))
            y = y + step * float(np.sin(new_heading))
            if not world.is_free(x, y, margin=env.collision_radius + 0.05):
                break
        else:
            ahead = reference_ray_distance(world, x, y, new_heading, expert.lookahead)
            clearance = min(reference_clearance(world, x, y), 3.0) / 3.0
            scores[action] = ahead / expert.lookahead + expert.clearance_weight * clearance
    scores[env.actions.straight_action] += expert.straight_bonus
    return scores



class TestGridLayouts:
    def test_all_layouts_have_path(self):
        for density in ("low", "middle", "high"):
            env = make_gridworld(density)
            assert env.shortest_path_length() > 0

    def test_density_ordering(self):
        assert (
            LOW_DENSITY.obstacle_density()
            < MIDDLE_DENSITY.obstacle_density()
            < HIGH_DENSITY.obstacle_density()
        )

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            GridLayout("bad", ("S.", "G"))  # ragged
        with pytest.raises(ValueError):
            GridLayout("bad", ("S.", ".."))  # no goal
        with pytest.raises(ValueError):
            GridLayout("bad", ("SG", "X."))  # invalid symbol

    def test_find_and_cell(self):
        assert MIDDLE_DENSITY.find("S") == (0, 0)
        assert MIDDLE_DENSITY.cell(9, 9) == GOAL

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError):
            make_gridworld("extreme")


class TestGridWorldDynamics:
    def test_reset_returns_source(self, grid_env):
        assert grid_env.reset() == grid_env.source_state

    def test_step_moves_agent(self, grid_env):
        grid_env.reset()
        state, reward, done, info = grid_env.step(3)  # right
        assert state == 1
        assert reward == 0.0
        assert not done

    def test_boundary_bump_keeps_position(self, grid_env):
        grid_env.reset()
        state, reward, done, _ = grid_env.step(0)  # up from row 0
        assert state == grid_env.source_state
        assert not done

    def test_bump_reward_applied(self):
        env = make_gridworld("middle", bump_reward=-0.5)
        env.reset()
        _, reward, _, _ = env.step(0)
        assert reward == -0.5

    def test_goal_gives_positive_reward_and_success(self):
        env = make_gridworld("middle")
        env.reset()
        # Walk along a path found by BFS to reach the goal.
        from collections import deque

        start, goal = (0, 0), (9, 9)
        parents = {start: None}
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            if cell == goal:
                break
            for action, (dr, dc) in ACTION_DELTAS.items():
                nxt = (cell[0] + dr, cell[1] + dc)
                if not (0 <= nxt[0] < 10 and 0 <= nxt[1] < 10):
                    continue
                if nxt in parents or env.layout.cell(*nxt) == HELL:
                    continue
                parents[nxt] = (cell, action)
                queue.append(nxt)
        actions = []
        cell = goal
        while parents[cell] is not None:
            cell, action = parents[cell]
            actions.append(action)
        for action in reversed(actions):
            state, reward, done, info = env.step(action)
        assert done and info["success"] and reward == 1.0

    def test_hell_terminates_with_negative_reward(self):
        env = make_gridworld("middle")
        env.reset()
        env.step(3)  # (0,1)
        env.step(1)  # (1,1)
        _, reward, done, info = env.step(3)  # (1,2) is hell
        assert done and reward == -1.0 and not info["success"]

    def test_invalid_action_rejected(self, grid_env):
        grid_env.reset()
        with pytest.raises(ValueError):
            grid_env.step(7)

    def test_one_hot_encoding(self, grid_env):
        encoded = grid_env.one_hot(42)
        assert encoded.shape == (100,)
        assert encoded.sum() == 1.0 and encoded[42] == 1.0

    def test_random_start_varies(self, rng):
        env = make_gridworld("middle", random_start=True, rng=rng)
        starts = {env.reset() for _ in range(30)}
        assert len(starts) > 3
        for start in starts:
            row, col = env.position_of(start)
            assert env.layout.cell(row, col) != HELL

    def test_state_index_round_trip(self, grid_env):
        for state in (0, 37, 99):
            assert grid_env.state_index(grid_env.position_of(state)) == state
        with pytest.raises(ValueError):
            grid_env.position_of(100)

    def test_render_marks_agent(self, grid_env):
        grid_env.reset()
        assert "A" in grid_env.render()

    @pytest.mark.parametrize("preset", sorted(GRID_REWARD_PRESETS))
    @pytest.mark.parametrize("layout", [LOW_DENSITY, MIDDLE_DENSITY, HIGH_DENSITY],
                             ids=lambda layout: layout.name)
    def test_step_matches_reference_everywhere(self, layout, preset):
        env = GridWorld(layout, **GRID_REWARD_PRESETS[preset])
        for state in range(env.n_states):
            for action in range(env.n_actions):
                env._state = state
                next_state, reward, done, info = env.step(action)
                expected = reference_grid_step(env, state, action)
                assert (next_state, reward, done, info["success"]) == expected
                assert type(next_state) is int and type(reward) is float

    @pytest.mark.parametrize("preset", sorted(GRID_REWARD_PRESETS))
    @pytest.mark.parametrize("layout", [LOW_DENSITY, MIDDLE_DENSITY, HIGH_DENSITY],
                             ids=lambda layout: layout.name)
    def test_batched_step_matches_reference_everywhere(self, layout, preset):
        env = GridWorld(layout, **GRID_REWARD_PRESETS[preset])
        states = np.repeat(np.arange(env.n_states), env.n_actions)
        actions = np.tile(np.arange(env.n_actions), env.n_states)
        batch = env.batched(states.size)
        batch._states[:] = states
        next_states, rewards, dones, infos = batch.step_many(actions, np.arange(states.size))
        for i, (state, action) in enumerate(zip(states.tolist(), actions.tolist())):
            expected = reference_grid_step(env, state, action)
            assert (next_states[i], rewards[i], dones[i], infos[i]["success"]) == expected
        assert batch._states.tolist() == next_states

    def test_outcome_table_is_shared_and_read_only(self):
        env = make_gridworld("middle")
        other = make_gridworld("middle")
        assert env._outcomes is other._outcomes
        assert make_gridworld("middle", bump_reward=-0.5)._outcomes is not env._outcomes
        with pytest.raises(ValueError):
            env._outcomes.next_state[0, 0] = 5

    @pytest.mark.parametrize("preset", sorted(GRID_REWARD_PRESETS))
    def test_random_start_first_step_keeps_drawn_start(self, preset):
        for seed in range(40):
            env = make_gridworld(
                "middle", random_start=True, rng=np.random.default_rng(seed),
                **GRID_REWARD_PRESETS[preset],
            )
            start = env.reset()
            free_cells = [
                state for state in range(env.n_states)
                if env.layout.cell(*env.position_of(state)) in (FREE, SOURCE)
            ]
            assert start == free_cells[int(np.random.default_rng(seed).integers(len(free_cells)))]
            action = seed % env.n_actions
            next_state, reward, done, info = env.step(action)
            assert (next_state, reward, done, info["success"]) == reference_grid_step(
                env, start, action
            )


class TestCorridorWorld:
    def test_rect_validation(self):
        with pytest.raises(ValueError):
            Rect(1.0, 1.0, 1.0, 2.0)

    def test_rect_contains_with_margin(self):
        rect = Rect(0, 0, 1, 1)
        assert rect.contains(1.2, 0.5, margin=0.3)
        assert not rect.contains(1.2, 0.5, margin=0.1)

    def test_ray_hits_rectangle(self):
        rect = Rect(5, -1, 6, 1)
        assert slab_ray_intersection(rect, 0, 0, 1, 0) == 5.0
        assert slab_ray_intersection(rect, 0, 0, -1, 0) is None
        assert slab_ray_intersection(rect, 0, 5, 1, 0) is None
        world = CorridorWorld(20.0, 10.0, [Rect(5, 4, 6, 6)], start_pose=(1.0, 5.0, 0.0))
        assert world.ray_distance(1.0, 5.0, 0.0) == 4.0
        assert world.ray_distance(1.0, 5.0, np.pi) == 1.0
        assert world.ray_distance(1.0, 8.0, 0.0) == 19.0

    @pytest.mark.parametrize("make_world", [indoor_long, indoor_vanleer])
    def test_ray_distances_match_reference(self, make_world):
        world = make_world()
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.5, world.length - 0.5, 64)
        ys = rng.uniform(0.5, world.width - 0.5, 64)
        # Random directions plus the axis-parallel ones the slab method
        # special-cases.
        angles = np.concatenate(
            [rng.uniform(-np.pi, np.pi, 56), [0.0, np.pi / 2, np.pi, -np.pi / 2] * 2]
        )
        batched = world.ray_distances(xs, ys, angles, 25.0)
        reference = [reference_ray_distance(world, *ray, 25.0) for ray in zip(xs, ys, angles)]
        assert np.array_equal(batched, reference)
        scalar = [world.ray_distance(*ray, 25.0) for ray in zip(xs, ys, angles)]
        assert np.array_equal(scalar, reference)

    def test_boundary_distance(self):
        world = indoor_long()
        # Looking straight down the corridor from the start.
        distance = world.ray_distance(2.0, 3.0, 0.0, max_range=200.0)
        assert distance <= world.length

    def test_is_free_and_clearance(self):
        world = indoor_vanleer()
        assert world.is_free(2.0, 3.0)
        assert not world.is_free(9.5, 1.0)  # inside the first obstacle
        assert world.clearance(2.0, 3.0) > 0

    def test_start_pose_must_be_free(self):
        with pytest.raises(ValueError):
            CorridorWorld(10, 5, [Rect(0, 0, 5, 5)], start_pose=(1, 1, 0))


class TestCameraAndActions:
    def test_image_shape(self):
        camera = DepthCamera(width=16, height=12)
        world = indoor_long()
        image = camera.render(world, 2.0, 3.0, 0.0)
        assert image.shape == (1, 12, 16)
        assert image.min() >= 0.0 and image.max() <= 1.0

    @pytest.mark.parametrize("make_world", [indoor_long, indoor_vanleer])
    def test_render_matches_reference(self, make_world):
        world = make_world()
        camera = DepthCamera(width=16, height=12)
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.5, world.length - 0.5, 8)
        ys = rng.uniform(0.5, world.width - 0.5, 8)
        headings = rng.uniform(-np.pi, np.pi, 8)
        batch = camera.render_batch(world, xs, ys, headings)
        for image, pose in zip(batch, zip(xs, ys, headings)):
            reference = reference_render(camera, world, *pose)
            assert np.array_equal(image, reference)
            assert np.array_equal(camera.render(world, *pose), reference)

    def test_close_obstacle_brighter_than_far(self):
        camera = DepthCamera(width=8, height=8, max_range=20.0)
        world = indoor_long()
        near = camera.render(world, 11.0, 1.0, 0.0)  # right in front of an obstacle
        far = camera.render(world, 2.0, 3.0, 0.0)
        assert near.mean() > far.mean()

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            DepthCamera(width=1)
        with pytest.raises(ValueError):
            DepthCamera(fov_degrees=200)

    def test_action_space_commands(self):
        actions = ActionSpace25()
        assert actions.n_actions == 25
        yaw, forward = actions.command(actions.straight_action)
        assert yaw == pytest.approx(0.0)
        assert forward == 1.0
        left_yaw, _ = actions.command(0)
        right_yaw, _ = actions.command(24)
        assert left_yaw > 0 > right_yaw
        with pytest.raises(ValueError):
            actions.command(25)


class TestDroneEnv:
    def test_reset_observation_shape(self):
        env = make_drone_env("indoor-long", image_size=24)
        state = env.reset()
        assert state.shape == (1, 24, 24)

    def test_straight_flight_accumulates_distance(self):
        env = make_drone_env("indoor-long", image_size=24)
        env.reset()
        total = 0.0
        for _ in range(10):
            _, reward, done, info = env.step(env.actions.straight_action)
            total = info["flight_distance"]
            if done:
                break
        assert total > 5.0

    def test_collision_terminates(self):
        env = make_drone_env("indoor-vanleer", image_size=24)
        env.reset()
        done = False
        for _ in range(200):
            _, reward, done, info = env.step(env.actions.straight_action)
            if done:
                break
        assert done

    def test_stall_detection_ends_episode(self):
        env = make_drone_env("indoor-long", image_size=24, stall_window=6, stall_distance=2.0)
        env.reset()
        done = False
        # Hard-left turns make the drone circle in place.
        for _ in range(60):
            _, _, done, info = env.step(0)
            if done:
                break
        assert done
        assert info["flight_distance"] < 30.0

    def test_invalid_environment_name(self):
        with pytest.raises(ValueError):
            make_drone_env("indoor-unknown")

    def test_unknown_action_rejected(self):
        env = make_drone_env("indoor-long", image_size=24)
        env.reset()
        with pytest.raises(ValueError):
            env.step(99)

    def test_collision_on_first_substep_reports_zero_flight(self):
        # An obstacle 0.25 m in front of the start (within collision_radius)
        # must terminate on the very first substep with no distance flown.
        world = CorridorWorld(10.0, 6.0, [Rect(2.5, 0.0, 3.5, 6.0)], (2.0, 3.0, 0.0))
        env = DroneNavEnv(world=world, camera=DepthCamera(16, 16))
        env.reset()
        _, reward, done, info = env.step(env.actions.straight_action)
        assert done
        assert reward == env.collision_penalty
        assert info["flight_distance"] == 0.0
        assert info["success"] is False

    def test_success_exactly_at_max_flight_distance(self):
        # Four 0.25 m substeps reach max_flight_distance=1.0 exactly; the
        # >= comparison must declare success on the boundary.
        world = CorridorWorld(20.0, 6.0, [], (2.0, 3.0, 0.0))
        env = DroneNavEnv(
            world=world, camera=DepthCamera(16, 16), max_flight_distance=1.0
        )
        env.reset()
        _, _, done, info = env.step(env.actions.straight_action)
        assert done
        assert info["success"] is True
        assert info["flight_distance"] == 1.0

    def test_stall_rollback_restores_progress_distance(self):
        # A loitering policy's reported flight distance must equal the
        # distance at the point where progress stopped (stall_window steps
        # before detection), not the inflated circling distance.
        env = make_drone_env(
            "indoor-long", image_size=16, stall_window=6, stall_distance=2.0
        )
        env.reset()
        flights = [0.0]
        done = False
        step = 0
        while not done:
            step += 1
            _, reward, done, info = env.step(0)
            flights.append(info["flight_distance"])
        assert reward == env.collision_penalty / 2.0  # stalled, not collided
        assert info["flight_distance"] == flights[step - env.stall_window]
        assert env.flight_distance == info["flight_distance"]

    def test_heading_stays_wrapped_during_circling(self):
        env = make_drone_env("indoor-long", image_size=16, stall_distance=0.0)
        env.reset()
        for _ in range(40):
            _, _, done, _ = env.step(0)  # winds far past 2*pi unwrapped
            heading = env.pose[2]
            assert -np.pi < heading <= np.pi
            assert not done

    def test_trajectory_golden(self):
        # Pinned scalar trajectory (generated from this revision): guards
        # the heading-wrap change and any future vectorization refactors.
        env = make_drone_env("indoor-long", image_size=16)
        env.reset()
        golden = [
            (12, 3.0, 3.0, 0.0, 0.59999999999999998, 1.0),
            (10, 3.9848077530122072, 3.1736481776669301, 0.17453292519943295, 0.57105863705551163, 2.0),
            (14, 4.9848077530122072, 3.1736481776669301, 0.0, 0.57105863705551163, 3.0),
            (12, 5.9848077530122072, 3.1736481776669301, 0.0, 0.57105863705551163, 4.0),
            (8, 6.9245003737981161, 3.5156683209925994, 0.3490658503988659, 0.51405527983456678, 5.0),
            (16, 7.9245003737981161, 3.5156683209925994, 0.0, 0.51405527983456678, 6.0),
            (12, 8.9245003737981161, 3.5156683209925994, 0.0, 0.51405527983456678, 7.0),
            (12, 9.9245003737981161, 3.5156683209925994, 0.0, 0.51405527983456678, 8.0),
        ]
        for action, x, y, heading, reward, flight in golden:
            _, got_reward, done, info = env.step(action)
            assert env.pose[0] == pytest.approx(x, rel=1e-6)
            assert env.pose[1] == pytest.approx(y, rel=1e-6)
            assert env.pose[2] == pytest.approx(heading, rel=1e-6, abs=1e-12)
            assert got_reward == pytest.approx(reward, rel=1e-6)
            assert info["flight_distance"] == pytest.approx(flight, rel=1e-6)
            assert not done


class TestWrapAngle:
    def test_values(self):
        assert float(wrap_angle(0.0)) == 0.0
        assert float(wrap_angle(np.pi)) == np.pi
        assert float(wrap_angle(-np.pi)) == pytest.approx(np.pi)
        assert float(wrap_angle(3 * np.pi / 2)) == pytest.approx(-np.pi / 2)
        assert float(wrap_angle(-3 * np.pi / 2)) == pytest.approx(np.pi / 2)

    def test_in_range_angles_bit_unchanged(self):
        vals = np.linspace(-3.14, 3.14, 13)
        assert np.array_equal(wrap_angle(vals), vals)

    def test_wrapped_angles_preserve_direction(self):
        big = np.array([7.0, -7.0, 123.456, -50.0])
        wrapped = wrap_angle(big)
        assert np.all((wrapped > -np.pi) & (wrapped <= np.pi))
        np.testing.assert_allclose(np.cos(wrapped), np.cos(big), atol=1e-12)
        np.testing.assert_allclose(np.sin(wrapped), np.sin(big), atol=1e-12)


class TestClearanceFan:
    def test_no_duplicate_rays(self):
        # endpoint=False excludes 2*pi, so no direction is cast twice.
        angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        assert len(np.unique(np.mod(angles, 2.0 * np.pi))) == len(angles)

    def test_batched_clearance_matches_scalar(self):
        world = indoor_long()
        rng = np.random.default_rng(5)
        xs = rng.uniform(1.0, 90.0, 32)
        ys = rng.uniform(0.5, 5.5, 32)
        batched = world.clearances(xs, ys)
        reference = [reference_clearance(world, x, y) for x, y in zip(xs, ys)]
        assert np.array_equal(batched, reference)
        scalar = [world.clearance(x, y) for x, y in zip(xs, ys)]
        assert np.array_equal(scalar, reference)


class TestDroneExpert:
    def test_expert_scores_shape_and_range(self):
        env = make_drone_env("indoor-long", image_size=24)
        env.reset()
        expert = GreedyDepthExpert(env)
        scores = expert.action_scores()
        assert scores.shape == (25,)
        assert scores.min() >= 0.0

    def test_expert_flies_reasonably_far(self):
        env = make_drone_env("indoor-long", image_size=24)
        expert = GreedyDepthExpert(env)
        env.reset()
        distance = 0.0
        for _ in range(150):
            _, _, done, info = env.step(expert.select_action())
            distance = info["flight_distance"]
            if done:
                break
        assert distance > 30.0

    def test_collect_dataset_shapes(self, rng):
        env = make_drone_env("indoor-long", image_size=24)
        expert = GreedyDepthExpert(env)
        images, targets = collect_dataset(env, expert, 12, rng)
        assert images.shape == (12, 1, 24, 24)
        assert targets.shape == (12, 25)

    @pytest.mark.parametrize("environment", ["indoor-long", "indoor-vanleer"])
    def test_action_scores_match_per_action_loop(self, environment):
        env = make_drone_env(environment, image_size=16)
        expert = GreedyDepthExpert(env)
        world = env.world
        rng = np.random.default_rng(21)
        poses = []
        while len(poses) < 40:
            x = rng.uniform(0.0, world.length)
            y = rng.uniform(0.0, world.width)
            if world.is_free(x, y, margin=env.collision_radius):
                poses.append((x, y, rng.uniform(-np.pi, np.pi)))
        # Poses just clear of a side wall and of an obstacle's face, facing
        # into them, so some actions collide and score 0.
        rect = world.obstacles[0]
        poses += [
            (30.0, env.collision_radius + 0.1, -np.pi / 2),
            (30.0, world.width - env.collision_radius - 0.1, np.pi / 2),
            (rect.x0 - env.collision_radius - 0.2, (rect.y0 + rect.y1) / 2, 0.0),
            (rect.x0 - env.collision_radius - 0.2, rect.y1 + 0.5, 0.3),
        ]
        blocked = 0
        for pose in poses:
            scores = expert.action_scores(pose)
            assert np.array_equal(scores, reference_action_scores(expert, pose))
            blocked += int(np.sum(scores == 0.0))
        assert blocked > 0

    def test_collect_dataset_raises_without_free_pose(self, rng):
        # A 6 m wide corridor has no point 3.5 m from both side walls.
        env = DroneNavEnv(indoor_long(), camera=DepthCamera(8, 8), collision_radius=3.5)
        with pytest.raises(ValueError, match="indoor-long.*3.5"):
            collect_dataset(env, GreedyDepthExpert(env), 3, rng)

    def test_collect_dataset_invalid_count(self, rng):
        env = make_drone_env("indoor-long", image_size=24)
        with pytest.raises(ValueError):
            collect_dataset(env, GreedyDepthExpert(env), 0, rng)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.5, max_value=99.5),
    y=st.floats(min_value=0.5, max_value=5.5),
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_property_ray_distance_nonnegative_and_bounded(x, y, angle):
    world = indoor_long()
    distance = world.ray_distance(x, y, angle, max_range=25.0)
    assert 0.0 <= distance <= 25.0
    assert distance == reference_ray_distance(world, x, y, angle, 25.0)
