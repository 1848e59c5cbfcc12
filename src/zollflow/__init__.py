"""Surfaces of revolution: geodesic periods, curvature, normalized Ricci flow."""

from .catalog import (GONG_C, OddFunction, gong_normalized, gong_raw,
                      michel_surface, round_sphere)
from .errors import (DomainError, FlowInstabilityError, GaugeError,
                     NoClosureError, NumericalAbort, PoleProximityError,
                     QuadratureError, ZollCertificationError)
from .geodesics import (GeodesicState, PeriodEntry, PeriodReport,
                        find_period, integrate, zoll_sweep)
from .profile import (ConformalProfile, MeridianCurve, ProfileMetric, area,
                      average_curvature, conformal_curvature,
                      conformal_to_arclength, curvature_arclength,
                      curvature_meridian, normalize_to_volume, scale,
                      to_arclength, to_conformal, total_curvature)
from .ricci import (FlowState, LprimeResult, evolve, flow_step,
                    lprime_analytic, lprime_numeric, make_state)
from .weinstein import (DiscretenessVerdict, WeinsteinDatum, common_period,
                        discreteness_check, weinstein_integer)

__version__ = "0.1.0"
