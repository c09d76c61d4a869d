"""1D Wasserstein gradient-flow solver with a numerical certificate suite."""

from .report import CSV_HEADER, CSV_SCHEMA_VERSION, CertificateReport
from .transport import (ConfigurationError, DegenerateQuantileError,
                        GridDensity, Interval, MonotonicityError,
                        boltzmann_entropy, densities_from_maps,
                        map_from_density)
from .lagrangian import (MobilitySpec, TemporalWeight, TestFunction,
                         alpha_window, dissipation_constants,
                         validate_assumption_f)
from .jko import (JkoConfig, JkoTrajectory, MobilityMapEnergy, jko_step,
                  refine_study, run)
from .diagnostics import (check_discrete_weak_f, check_energy_monotone,
                          check_entropy_dissipation_f,
                          check_total_square_distance)

__version__ = "0.1.0"
