"""Relation-classification word embeddings and classifier.

Embeddings are pretrained on an unlabeled POS-tagged corpus by predicting
each word between a noun pair from the pair, its local window, and the
surrounding words; the trained parameters then provide feature vectors for
a softmax relation classifier evaluated under the SemEval-2010 Task 8
protocol.
"""

from .corpus import (
    ALL_LABELS,
    ArtifactError,
    ConfigError,
    ContextArrays,
    ContextFile,
    LabelledContexts,
    NounPairContext,
    TaggedSentence,
    Vocabulary,
    build_vocabulary,
    extract_noun_pair_contexts,
    neighbor_slots,
    parse_label,
    parse_semeval,
)
from .embed_train import (
    EmbeddingParams,
    NoiseSampler,
    PretrainConfig,
    SubsamplingFilter,
    build_feature_vector,
    initial_params,
    load_model,
    pretrain_step,
    save_model,
    train_embeddings,
)
from .cbow_baseline import train_cbow
from .features import FeatureOptions, assemble_features, feature_dim
from .classifier import (
    SoftmaxParams,
    SupervisedConfig,
    cross_validate,
    predict_many,
    train_classifier,
)
from .evaluation import (
    EvalReport,
    bootstrap_ci,
    score_semeval,
    top_ngrams,
)

__version__ = "0.1.0"
