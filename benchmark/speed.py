"""Times in milliseconds at a reference interpreter speed.

The CPUs this benchmark runs on are shared, and their speed drifts: the
same pure-Python op takes anywhere from 1x to 1.8x its usual time, in
spells that last from seconds to tens of seconds, with no CPU time stolen
from the process. Wall times of one run are then not comparable with
another's.

So every run also times a fixed calibration loop, again and again between
its ops, and scales each op's wall time by CAL_REF_MS over the calibration
time measured around it. A program change does not change the calibration
loop, so it moves the scaled times as it would move wall times on an idle
machine. The run also prints the raw wall-clock medians.
"""

import json
import statistics
import time
from collections import defaultdict

CAL_REF_MS = 1.0  # the loop's usual time on the 2-CPU VM the bounds were set on
CAL_EVERY_S = 0.1  # calibrate at least this often
CAL_WINDOW = 4  # calibrations that scale one segment


# A fixed document for the calibration loop. Its JSON round trip tracks the
# program's speed through the drift better than plain arithmetic loops do:
# it allocates many small dicts, lists and strings, as the program does.
_DOCUMENT = {f"k{i}": [i, str(i), {"v": i * 0.5, "w": [1, 2, 3]}] for i in range(350)}


def _calibration_work() -> int:
    return len(json.loads(json.dumps(_DOCUMENT)))


def calibration_ms() -> float:
    """Median wall time of three runs of the calibration loop."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _calibration_work()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


class ScaledTimes:
    """Collects wall times by series and scales them to the reference speed.

    Calibrations split the run into segments. The times added in a segment
    are scaled by CAL_REF_MS over the median of the CAL_WINDOW calibrations
    nearest to it, so that one calibration caught by a passing hiccup, or
    by the edge of a slow spell, does not decide a whole segment.
    """

    def __init__(self):
        self.raw = defaultdict(list)
        self.cal_ms = [calibration_ms()]
        self._added = []  # (series, wall ms, segment)
        self._cal_at = time.perf_counter()

    def add(self, series: str, wall_ms: float) -> None:
        self.raw[series].append(wall_ms)
        self._added.append((series, wall_ms, len(self.cal_ms) - 1))
        if time.perf_counter() - self._cal_at >= CAL_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.cal_ms.append(calibration_ms())
        self._cal_at = time.perf_counter()

    def scaled(self, series: str) -> list:
        """The series' times scaled; calibrate once after the last add."""
        half = CAL_WINDOW // 2
        out = []
        for name, wall_ms, segment in self._added:
            if name == series:
                # Segment k lies between calibrations k and k + 1.
                lo = max(0, min(segment + 1 - half, len(self.cal_ms) - CAL_WINDOW))
                cal = statistics.median(self.cal_ms[lo : lo + CAL_WINDOW])
                out.append(wall_ms * CAL_REF_MS / cal)
        return out
