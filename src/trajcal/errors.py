"""Exception types shared across the calibration package."""


class CalibrationError(Exception):
    """Base class for calibration-specific failures."""


class EmptyTrajectory(CalibrationError):
    """Trajectory has too few positions for the requested computation."""


class TooFewPairs(CalibrationError):
    """Not enough correspondences for the requested solve."""


class DegenerateGeometry(CalibrationError):
    """Correspondences are collinear; rotation about the line is unobservable."""


class InsufficientOverlap(CalibrationError):
    """Matched trajectories share no usable temporal overlap."""


class NoCandidateMatches(CalibrationError):
    """The filtered match set is too small to attempt calibration."""

    def __init__(self, raw_count: int, filtered_count: int):
        self.raw_count = raw_count
        self.filtered_count = filtered_count
        super().__init__(
            f"only {filtered_count} matches survived filtering "
            f"({raw_count} raw candidates); need at least 3"
        )


class NoViableHypothesis(CalibrationError):
    """Enough matches survived filtering, but no initial transform led to a
    calibration: every hypothesis collapsed in the iterative loop, or there
    was none to try (no prior, and the offset scan found no clock offset that
    two trajectory pairs agree on)."""

    def __init__(self, raw_count: int, filtered_count: int, hypotheses_tried: int):
        self.raw_count = raw_count
        self.filtered_count = filtered_count
        self.hypotheses_tried = hypotheses_tried
        if hypotheses_tried:
            cause = f"all {hypotheses_tried} initial hypotheses collapsed in the calibration loop"
        else:
            cause = "the offset scan found no clock offset that two trajectory pairs agree on"
        super().__init__(
            f"{cause}; {filtered_count} matches survived filtering "
            f"({raw_count} raw candidates)"
        )


class BothZeroScore(CalibrationError):
    """Continuous update called with two zero-score sessions."""
