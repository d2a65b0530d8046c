"""Ontology toolkit: OWL functional-syntax parsing, rule-based reasoning,
concept-graph clustering, and ontology-constrained topic modelling."""

from .model import (
    Characteristic,
    ClassAssertion,
    DataPropertyAssertion,
    DataPropertyDomain,
    DataPropertyRange,
    DisjointClasses,
    DisjointUnion,
    EntityKind,
    EquivalentClasses,
    InverseObjectProperties,
    KindMismatch,
    Label,
    Literal,
    Name,
    ObjectPropertyAssertion,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Ontology,
    OntologyError,
    PropertyCharacteristic,
    SubClassOf,
    SubObjectPropertyOf,
    UndeclaredEntity,
    UnionOf,
    add_axiom,
    build_lexicon,
    compute_metrics,
    split_camel,
)
from .ofn import (
    ParseDiagnostic,
    ParseResult,
    SourceSpan,
    parse,
    parse_file,
    render_axiom,
    serialize,
)
from .reasoner import (
    Derivation,
    ExplanationNode,
    InferredStore,
    IsA,
    Rel,
    Sub,
    Taxonomy,
    UnknownFact,
    Violation,
    classify,
    explain,
    instances_of,
    saturate,
)
from .graphmap import (
    ConceptGraph,
    EmptyGraph,
    GraphEdge,
    GraphNode,
    Partition,
    PartitionMismatch,
    UnknownFormat,
    build_concept_graph,
    cluster,
    export,
    modularity,
)
from .corpus import (
    Corpus,
    DEFAULT_STOPWORDS,
    EmptyCorpus,
    ingest_corpus,
    read_records,
    tokenize,
)
from .constraints import (
    ConstraintSet,
    derive_constraints,
)
from .forest import (
    ConflictingConstraints,
    DirichletForest,
    Region,
    TooManyCliques,
    build_forest,
    flat_forest,
)
from .gibbs import (
    ForestVocabMismatch,
    InvalidHyperparameter,
    TopicModelState,
    dflda_gibbs,
    lda_gibbs,
    log_likelihood,
    phi_matrix,
    tag_topics,
    top_words,
)

__version__ = "0.1.0"
