"""Intermittent private information retrieval over replicated servers.

Library layout:

* ``core``          exact rationals, distributions, message stores, config
* ``obfuscation``   subset policies: exact LP and the greedy construction
* ``simplex``       the rational simplex backing the LP
* ``pir``           capacity-achieving retrieval over a message subset
* ``intermittent``  the two-request protocol and cost accounting
* ``location``      the online Markov location-privacy mechanism
* ``audit``         exact / empirical privacy verification
* ``net``           framed TCP servers and the client exchange
* ``cli``           the ``ipir`` command
"""

from .core import (
    ConditionalMatrix,
    JointDistribution,
    MessageStore,
    SystemConfig,
    capacity_cost,
    conditional_from_joint,
    fork_rng,
    validate_joint,
)
from .obfuscation import (
    LikelihoodProfile,
    ObfuscationPolicy,
    build_lp,
    expected_cost,
    greedy_policy,
    likelihood_profile,
    solve_lp,
    trivial_policy,
    validate_policy,
)
from .pir import (
    PirKey,
    PirQuery,
    PirSession,
    SchemeParams,
    open_session,
    pir_answer,
    pir_setup,
)
from .intermittent import (
    CostReport,
    TwoRequestReport,
    guaranteed_cost_bound,
    retrieve,
    run_two_request,
)
from .location import (
    MobilityModel,
    PosteriorState,
    PrivacySchedule,
    initial_posterior,
    simulate,
    step_nonprivate,
    step_private,
)
from .audit import (
    AuditReport,
    audit_online_privacy,
    audit_policy_independence,
    audit_leak_equivalence,
    audit_query_privacy,
    check_size_bound,
    mutual_information,
)

__version__ = "0.1.0"
