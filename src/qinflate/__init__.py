"""Incompatibility witnesses for quantum states on the triangle causal network.

The package builds the cut-inflation witness operators I_xy, decides
witnessed incompatibility for quantum states and classical distributions,
analyzes whether a witnessed incompatibility survives local product-basis
measurement (distribution-witnessability) via a partial-transpose
relaxation, and provides the DAG combinatorics that justify the witnesses.
"""

from .linalg import (
    DensityMatrix,
    HermitianOperator,
    Spectrum,
    SubsystemLayout,
    hermitian_eig,
    kron,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
)
from .states import (
    Distribution,
    LocalBasis,
    NuPair,
    PureState,
    encode_distribution,
    ghz_distn,
    ghz_state,
    is_biseparable_pure,
    measure_local,
    nu_decomposition,
    omega_example,
    qutrit_pair,
    schmidt224,
    toth_acin,
    tri_bell,
    w_distn,
    w_state,
    white_noise_mixture,
)
from .witness import (
    Verdict,
    WitnessOperator,
    cut_witness_classical,
    cut_witness_quantum,
    fidelity_witness,
    hall_delta,
    supp_ker_test,
    verdict,
)
from .dag import (
    PartitionedDag,
    build_cut_inflation,
    build_triangle,
    injectable_sets,
    is_inflation,
    is_nonfanout,
    marginal_independent_pairs,
)
from .opt import ppt_min, product_min, sweep

__version__ = "0.1.0"
