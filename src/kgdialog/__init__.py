"""Knowledge-graph-grounded dialogue generation.

A compact decoder-only language model with five summed embedding streams
(token, position, entity group, triple, segment type) and a
question-conditioned knowledge attention mask built from per-entity and
per-relation relevance weights.
"""

from .corpus import (
    DatasetSplit,
    DialogueSample,
    DialogueTurn,
    Entity,
    KnowledgeGraph,
    RelationLabel,
    SynthConfig,
    Triple,
    entity_lexicon,
    generate_synthetic,
    load_dataset,
    normalize_text,
    save_dataset,
)
from .evaluation import EvalReport, entity_f1, evaluate, sentence_bleu
from .graph_weights import (
    Selection,
    TokenEmbedder,
    WeightedGraph,
    compute_weighted_graph,
    feature_vector,
    relation_weights,
    select_topk,
)
from .masking import AttentionMask, NEG_INF, compose_mask, knowledge_column_mask
from .model import (
    DecodingParams,
    ModelConfig,
    ModelState,
    attention,
    backward,
    forward,
    init_model,
    loss,
    sample_response,
)
from .sequence import (
    AssemblyLimits,
    GraphIndex,
    InputSequence,
    Vocabulary,
    assemble_input,
    build_vocab,
    graph_index,
    linearize_graph,
)
from .training import TrainConfig, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
