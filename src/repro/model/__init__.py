"""LLM substrate: configs, weights, decode engine, synthetic activations."""

from .config import (
    ModelConfig,
    prosparse_llama2_7b,
    prosparse_llama2_13b,
    tiny_7b_role,
    tiny_13b_role,
)
from .inference import InferenceModel, MLPTrace
from .kvcache import KVCache
from .mlp import DenseMLP, MLPStats
from .paged_kvcache import (
    PagedKVCache,
    PagedKVSlot,
    PagePool,
    PrefixCache,
    chained_prefix_keys,
)
from .synthetic import SyntheticActivationModel
from .tokenizer import CharTokenizer
from .weights import LayerWeights, ModelWeights, random_weights
