"""Exception hierarchy shared across the package.

Every error carries a short machine-readable category used by the CLI to
map failures to exit codes and to the single-line diagnostic format
``error: <category>: <detail>``.
"""


class SdotError(Exception):
    category = "error"


class FormatError(SdotError):
    """Malformed input file (carries file/line context in the message)."""

    category = "parse"


class ValidationError(SdotError):
    """Input violates a documented invariant (bad density, imbalance, ...)."""

    category = "validation"


class InitializationError(ValidationError):
    """The Voronoi start produces empty cells for the listed sites."""

    def __init__(self, empty_sites):
        self.empty_sites = list(empty_sites)
        super().__init__(
            "empty initial Voronoi cell for site(s) "
            + ", ".join(str(i) for i in self.empty_sites)
        )


class SolverError(SdotError):
    category = "solver"


class DisconnectedAdjacencyError(SolverError):
    """The cell adjacency graph splits into several components."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(
            "cell adjacency graph is disconnected; components: "
            + "; ".join("{" + ", ".join(map(str, c)) + "}" for c in self.components)
        )


class LinearSolveError(SolverError):
    """The inner SPD solve missed its relative-residual contract."""

    def __init__(self, residual, target):
        self.residual = residual
        self.target = target
        super().__init__(
            f"inner solve stalled at relative residual {residual:.3e} (target {target:.1e})"
        )


class LineSearchError(SolverError):
    """No damped step satisfied the acceptance rule within the trial cap.

    Carries the number of trial steps (tau = 1, 1/2, ...), the Newton
    iteration, the gradient sup-norm before the step, the last step length
    tried, the smallest cell mass at that step and the mass floor ``eps0``.
    """

    def __init__(self, trials, iteration, grad_norm, tau, min_mass, eps0):
        self.trials = trials
        self.iteration = iteration
        self.grad_norm = grad_norm
        self.tau = tau
        self.min_mass = min_mass
        self.eps0 = eps0
        super().__init__(
            f"no acceptable step in {trials} trial step(s), the last at tau = {tau:g}, "
            f"at iteration {iteration} (|g| = {grad_norm:.3e})"
        )
