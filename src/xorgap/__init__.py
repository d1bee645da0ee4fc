"""Three-player XOR games from random 3-tensors.

Sampling of masked outer-product tensors, their bilinear (spectral) and
trilinear norms, the Pauli-basis transform between tensors and game
coefficients, classical/entangled bias computation, constructive projector
nets with the signed-projector decomposition, tail-bound envelopes with
Monte-Carlo verifiers, and a CLI tying the pipeline together.
"""

from .concentration import (
    SpectralRatioReport,
    TailEnvelope,
    TailReport,
    empirical_tail,
    envelope,
    verify_spectral_lb,
)
from .errors import (
    DegenerateGameError,
    DimensionError,
    ScaleError,
    UnspecifiedConstantError,
)
from .game import (
    BoundReport,
    ClassicalStrategy,
    EntangledStrategy,
    GameBuildReport,
    XorGame,
    check_dimension_bound,
    check_question_bound,
    classical_bias,
    classical_bias_exact,
    classical_bias_heuristic,
    classical_value,
    embedded_chsh_game,
    entangled_bias_eval,
    game_from_tensor,
    ghz_strategy,
    mermin_game,
    pauli_strategy,
    seesaw_entangled_bias,
)
from .nets import (
    HermDecomposition,
    lorentz_decompose,
    projector_net,
    sphere_net,
)
from .pauli import build_basis, fourier, inverse_fourier
from .sweep import GapRow, gap_sweep, show, verify_suite
from .tensor import (
    SamplerConfig,
    Tensor3,
    TrilinearWitness,
    hermitize,
    load_tensor,
    sample_tensor,
    save_tensor,
    spectral_norm,
    trilinear_eval,
    trilinear_norm_lower,
    trilinear_norm_upper_net,
)

__all__ = [name for name in dir() if not name.startswith("_")]
