"""Desk-scale laboratory for online active learning over document streams.

A DQN-based inclusive-sampling agent is trained and evaluated against
random, uncertainty, and diversity baselines while a simulated annotator
with parameterized memory decay provides (possibly erroneous) labels.
"""

from .corpus import (
    Document,
    EmbeddingTable,
    LabelSpace,
    embed_document,
    generate_synthetic,
    load_dataset,
    load_word_vectors,
    tokenize,
)
from .dqn import (
    AgentConfig,
    ReplayBuffer,
    decide,
    evaluate_policy,
    select_action,
    soft_update,
    train_agent,
    train_step,
)
from .encoder import LastSeenTracker, encode_state
from .harness import (
    ExperimentRecord,
    HarnessConfig,
    diversity_select,
    run_experiment,
    uncertainty_decide,
    write_record,
)
from .learner import SoftmaxClassifier, f1_macro, fit, fit_many, predict, predict_proba
from .nnet import AdamState, DenseNet, load_checkpoint, optimizer_step, save_checkpoint, smooth_l1
from .oracle import DecayModel, OracleState, error_probability
from .reward import DISCARD, PICK, RewardConfig, compute_reward, inclusivity
from .config import ConfigError, ExperimentConfig, parse_config

__version__ = "0.1.0"
