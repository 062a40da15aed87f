"""Probe tasks: reach2d scenes whose reward has a known answer.

Each probe is a Reach2D subclass that keeps the scene, the cloud, the
proprio and the controller, and replaces the reward.  A test registers
one under the task name "reach2d" by patching envs._ENV_CLASSES, so the
trainers run it through their usual calls and nothing in the package
changes.  A probe never succeeds, so its episodes end at the horizon.
"""

from deskrl import envs


class ConstantReward(envs.Reach2D):
    """Reward 1 on every step: at horizon 1 the value of every state is 1."""

    def _measure(self) -> tuple[bool, float]:
        super()._measure()  # keeps the tip that the proprio reads
        return False, 1.0


class FirstActionReward(envs.Reach2D):
    """Reward equal to the executed action's first coordinate: at horizon 1
    the best policy pushes it to the box edge, 1."""

    def _reset_scene(self, gen) -> None:
        super()._reset_scene(gen)
        self._a0 = 0.0

    def _command(self, action):
        self._a0 = float(action[0])
        return super()._command(action)

    def _measure(self) -> tuple[bool, float]:
        super()._measure()
        return False, self._a0
