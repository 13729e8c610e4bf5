"""Attribute-weighted NB-tree toolkit for KDD99-format intrusion records.

Pipeline in one line: load weighted records, derive per-attribute weights
from the depth at which a posterior-weighted information-gain tree tests
each attribute, drop zero-weight attributes, train a naive-Bayes tree on
the reduced data, and report per-class detection / false-positive rates
against plain NB and gain-tree baselines.
"""

from .dataset import (
    AttributeSpec,
    Example,
    Schema,
    WeightedDataset,
    class_counts,
    load_dataset,
    load_schema_file,
    load_taxonomy_file,
    parse_record,
    project_attributes,
    stratified_sample,
    stratified_split,
)
from .probability import (
    NaiveBayesModel,
    classify_nb,
    fit_codes,
    fit_naive_bayes,
)
from .attribute_weighting import (
    AttributeWeights,
    DecisionTree,
    SelectionParams,
    SelectionResult,
    build_weighted_tree,
    compute_attribute_weights,
    select_attributes,
    update_example_weights,
)
from .nbtree import (
    NBTree,
    NBTreeParams,
    SplitUtility,
    build_nbtree,
    classify_nbtree,
)
from .evaluation import (
    ComparisonConfig,
    ConfusionMatrix,
    EvalReport,
    detection_rate,
    evaluate,
    false_positive_rate,
    normal_false_positive,
    run_comparison,
)
from .kdd99 import kdd99_schema, kdd99_taxonomy

__version__ = "0.1.0"
