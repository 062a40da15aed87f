"""Hand-written mutants of src/deskrl: the RL bugs the suite should catch.

Each mutant is a bug an implementation of this system can have, written
as edits to one file under src/deskrl: an exact old text and the new
text that replaces it, applied in order.  A mutant is killed when some
test fails on a checkout with its edits applied.  The golden digests in
tests/test_golden.py catch any change of bits, but only on the OpenBLAS
kernel they were pinned on, so a mutant counts as killed only by a test
outside that file.

tests/test_mutants.py checks, in milliseconds, that each old text occurs
exactly once in src/deskrl, in the mutant's file, and that the mutated
file still parses.  So a change that moves or rewrites the code a mutant
edits fails there until this list follows it, and the list cannot go
stale.  With DESKRL_MUTANTS=1 set, tests/test_mutants.py also runs the
suite against each mutant, on a copy of the checkout; that run leaves out
tests/test_mutants.py as well, which fails on every mutated checkout by
construction.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/deskrl
    edits: tuple[tuple[str, str], ...]  # (old text, new text), applied in order
    bug: str


def mutate(source: str, mutant: Mutant) -> str:
    """`source` (the mutant's file) with the mutant's edits applied, each
    old text replaced where it occurs once."""
    for old, new in mutant.edits:
        if source.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {source.count(old)} times in {mutant.file}")
        source = source.replace(old, new)
    return source


MUTANTS = (
    # the eight mutants of ROADMAP item 13's re-anchor
    Mutant(
        "entropy_sign",
        "ppo.py",
        (
            ("- cfg.entropy_coef * entropy", "+ cfg.entropy_coef * entropy"),
            ("(z * z - 1.0), axis=0) - cfg.entropy_coef", "(z * z - 1.0), axis=0) + cfg.entropy_coef"),
        ),
        "the entropy bonus enters the PPO loss and its gradient with the wrong sign",
    ),
    Mutant(
        "gae_ignores_done",
        "ppo.py",
        (("mask = 1.0 - buffer.dones[t]", "mask = 1.0"),),
        "GAE bootstraps and carries its trace across the end of an episode",
    ),
    Mutant(
        "logp_of_clamped_action",
        "policy.py",
        (
            (
                "logp = _logp(raw, mean, log_std, std)",
                "logp = _logp(np.minimum(np.maximum(raw, -1.0), 1.0), mean, log_std, std)",
            ),
        ),
        "the recorded log-probability is the clamped action's, not the raw sample's the density refers to",
    ),
    Mutant(
        "adam_without_bias_correction",
        "nn.py",
        (
            ("np.divide(state.m, 1.0 - state.beta1**state.t, out=a)", "np.divide(state.m, 1.0, out=a)"),
            ("np.divide(state.v, 1.0 - state.beta2**state.t, out=b)", "np.divide(state.v, 1.0, out=b)"),
        ),
        "Adam steps on the raw moments, without the bias correction of its first steps",
    ),
    Mutant(
        "no_bootstrap_at_lane_end",
        "ppo.py",
        (("next_value = bootstrap", "next_value = 0.0"),),
        "a lane cut off mid-episode is treated as terminated: GAE drops V of its last observation",
    ),
    Mutant(
        "surrogate_takes_max",
        "ppo.py",
        (
            ("surr = np.minimum(ratio * adv, clipped * adv)", "surr = np.maximum(ratio * adv, clipped * adv)"),
            ("unclipped_active = ratio * adv < clipped * adv", "unclipped_active = ratio * adv > clipped * adv"),
        ),
        "the clipped surrogate takes the optimistic bound, its gradient branch flipped to match",
    ),
    Mutant(
        "approx_kl_sign",
        "ppo.py",
        (('"approx_kl": float(np.mean(old - logp))', '"approx_kl": float(np.mean(logp - old))'),),
        "approx_kl estimates the divergence with the wrong sign",
    ),
    Mutant(
        "clip_fraction_zero",
        "ppo.py",
        (('"clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps))', '"clip_fraction": 0.0'),),
        "clip_fraction reports no clipped ratio whatever the update does",
    ),
    # the five scratch mutations CHANGES.md records for the probes and the crash test
    Mutant(
        "value_target_without_baseline",
        "ppo.py",
        (("buffer.returns = adv + buffer.values", "buffer.returns = adv"),),
        "the value target is the advantage alone, without the baseline added back",
    ),
    Mutant(
        "flipped_advantage",
        "ppo.py",
        (("buffer.advantages = adv", "buffer.advantages = -adv"),),
        "the policy gradient follows the negated advantage and lowers the reward",
    ),
    Mutant(
        "td_target_without_next_value",
        "ppo.py",
        (
            (
                "delta = buffer.rewards[t] + gamma * next_value * mask - buffer.values[t]",
                "delta = buffer.rewards[t] - buffer.values[t]",
            ),
        ),
        "the TD target drops the discounted V of the next observation",
    ),
    Mutant(
        "flipped_bc_gradient",
        "bc.py",
        (("(2.0 / m) * err", "(-2.0 / m) * err"),),
        "behaviour cloning ascends its squared action error",
    ),
    Mutant(
        "metrics_before_checkpoint",
        "loop.py",
        (
            ("        append_metrics(log, record)\n", ""),
            (
                "        record = MetricsRecord(step, train_rate, test_rate, stage)\n",
                "        record = MetricsRecord(step, train_rate, test_rate, stage)\n"
                "        append_metrics(log, record)\n",
            ),
        ),
        "an evaluation's metrics line is written before its checkpoint, so a crash between them "
        "leaves a record with no checkpoint to resume from",
    ),
    # survived every test outside test_golden.py and test_mutants.py until a test of the
    # clamp's gradient
    Mutant(
        "log_std_grad_unmasked",
        "policy.py",
        (("grad[lo:hi] += d_log_std * log_std_grad_mask(store)", "grad[lo:hi] += d_log_std"),),
        "the log-std gradient passes through the clamp: entries stored past LOG_STD_MIN or "
        "LOG_STD_MAX keep moving though the clamped value the loss sees cannot",
    ),
    # the batched observations' own bug: an auto-reset lane keeps the per-episode
    # arrays (cloud template, offsets) of the episode before
    Mutant(
        "stale_episode_arrays_after_reset",
        "envs.py",
        (("            templates[i], offsets[i] = active[i]._template, active[i]._offsets\n", ""),),
        "a lane that resets mid-run is observed with its last episode's goal, target and "
        "sample offsets",
    ),
    # the one start rule's subtle line: a call started in place keeps its own Adam state;
    # first failing test: test_bc.py::TestTrainBC::test_resume_rejects_another_learning_rate
    Mutant(
        "reset_optimizer_on_in_place_resume",
        "loop.py",
        (("        reset_optimizer = False\n", ""),),
        "a stage-two call with reset_optimizer, run again in place after a crash, zeroes the Adam "
        "moments it built since its entry",
    ),
    # the pooled demo load: the episodes' slices are read in file order and
    # concatenated; pooled in any other order, rows no longer match their lengths
    Mutant(
        "demo_load_pools_episodes_out_of_order",
        "persistence.py",
        (("np.concatenate(arrays[i::3], dtype=np.float64)", "np.concatenate(arrays[i::3][::-1], dtype=np.float64)"),),
        "a loaded demo bundle pools its episodes last first, so each row is paired with another "
        "episode's length and success flag than the one it was saved with",
    ),
)
