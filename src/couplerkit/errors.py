"""Exception types shared across the package."""


class CouplerKitError(Exception):
    """Base class for all couplerkit errors."""


class NetlistError(CouplerKitError):
    """Netlist JSON is malformed or violates the network invariants."""


class SingularNetworkError(CouplerKitError):
    """Capacitance matrix is singular or not positive definite after reduction."""


class AssumptionViolationError(CouplerKitError):
    """Closed-form energies requested for a network outside their validity assumptions.

    Carries the list of violated assumptions in ``violations``.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "closed-form assumptions violated: " + "; ".join(self.violations)
        )


class FluxDomainError(CouplerKitError):
    """Josephson energy vanished (or went negative) at the requested flux."""


class ResonanceError(CouplerKitError):
    """A perturbative denominator is below the configured floor.

    ``denominator`` names the offending term, ``value`` its magnitude in GHz.
    """

    def __init__(self, denominator: str, value: float, floor: float):
        self.denominator = denominator
        self.value = value
        self.floor = floor
        super().__init__(
            f"denominator {denominator} = {value:.6g} GHz is below the "
            f"resonance floor {floor:.6g} GHz"
        )


class NoRootError(CouplerKitError):
    """Root finder found no sign change over the requested band."""

    def __init__(self, band: tuple[float, float], f_lo: float, f_hi: float):
        self.band = band
        self.f_lo = f_lo
        self.f_hi = f_hi
        super().__init__(
            f"no sign change over [{band[0]:.6g}, {band[1]:.6g}]: "
            f"f(lo) = {f_lo:.6g}, f(hi) = {f_hi:.6g} GHz"
        )


class LabelingError(CouplerKitError):
    """Dressed-state labeling is ambiguous (overlap at or below threshold)."""


class LabelingWarning(UserWarning):
    """A numeric root search skipped points whose states it could not label."""


class UnderdeterminedFitError(CouplerKitError):
    """Fewer data rows than free fit parameters."""
