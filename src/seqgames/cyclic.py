"""The benchmark harness's cyclic names for four parametric analyses; the module goes with ROADMAP item 7."""

from .parametric import check_spe_param as check_spe_cyclic
from .parametric import enumerate_stationary_spe as enumerate_positional_spe
from .parametric import induced_outcome_param as induced_outcome
from .parametric import instantiate as unfold
