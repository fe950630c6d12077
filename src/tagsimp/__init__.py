"""Text simplification by iterative token-level edit tagging."""

from .align import (
    AlignKind,
    AlignOp,
    PairReader,
    align,
    build_vocab,
    extract_tags,
    filter_brackets,
)
from .apply import VerbLexicon, apply_tags, apply_transform, default_lexicon
from .bench import BenchReport, bench
from .core import (
    EditKind,
    EditTag,
    TagSeq,
    TagVocabulary,
    Token,
    TokenSeq,
    TransformKind,
    detokenize,
    parse_tag,
    serialize_tag,
    tokenize,
)
from .engine import (
    InferenceConfig,
    SimplifyTrace,
    decode_step,
    simplify,
    simplify_batch,
)
from .external import ExternalTaggerClient
from .metrics import EvalRecord, EvalReport, SariReport, evaluate, fkgl, sari, syllables
from .stat_tagger import StatTaggerModel, stat_train
from .tagger import (
    CorpusOracleBackend,
    OracleBackend,
    TagPrediction,
    TaggerBackend,
    ensemble_combine,
    oracle_predict,
)
from .tune import TuneResult, tune

__version__ = "0.1.0"

__all__ = [
    "AlignKind",
    "AlignOp",
    "BenchReport",
    "CorpusOracleBackend",
    "EditKind",
    "EditTag",
    "EvalRecord",
    "EvalReport",
    "ExternalTaggerClient",
    "InferenceConfig",
    "OracleBackend",
    "PairReader",
    "SariReport",
    "SimplifyTrace",
    "StatTaggerModel",
    "TagPrediction",
    "TagSeq",
    "TagVocabulary",
    "TaggerBackend",
    "Token",
    "TokenSeq",
    "TransformKind",
    "TuneResult",
    "VerbLexicon",
    "align",
    "apply_tags",
    "apply_transform",
    "bench",
    "build_vocab",
    "decode_step",
    "default_lexicon",
    "detokenize",
    "ensemble_combine",
    "evaluate",
    "extract_tags",
    "filter_brackets",
    "fkgl",
    "oracle_predict",
    "parse_tag",
    "sari",
    "serialize_tag",
    "simplify",
    "simplify_batch",
    "stat_train",
    "syllables",
    "tokenize",
    "tune",
]
