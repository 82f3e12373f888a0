"""The paper's primary contribution: matrix-based bulk sampling.

Algorithm 1's NORM/SAMPLE/EXTRACT abstraction, inverse transform sampling,
and its GraphSAGE, LADIES and FastGCN instantiations.
"""

from .bulk import (
    assign_round_robin,
    batch_rng,
    chunk_bulks,
    reassemble_round_robin,
    split_stacked,
    stack_batches,
)
from .compile import (
    eliminate_dead_steps,
    fuse_prob_norm,
    fuse_sample_extract,
    optimize,
)
from .fastgcn_sampler import FastGCNSampler
from .frontier import LayerSample, MinibatchSample
from .its import gumbel_topk_rows, its_flops, its_sample_rows
from .ladies_sampler import LadiesSampler
from .plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    step_phase,
)
from .sage_sampler import SageSampler
from .saint_sampler import GraphSaintRWSampler
from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = [
    "MatrixSampler",
    "SpGEMMFn",
    "SageSampler",
    "LadiesSampler",
    "FastGCNSampler",
    "GraphSaintRWSampler",
    "LayerSample",
    "MinibatchSample",
    "SamplingPlan",
    "ProbStep",
    "NormStep",
    "SampleStep",
    "ExtractStep",
    "step_phase",
    "LocalExecutor",
    "FusedProbNormStep",
    "FusedSampleExtractStep",
    "eliminate_dead_steps",
    "fuse_prob_norm",
    "fuse_sample_extract",
    "optimize",
    "its_sample_rows",
    "gumbel_topk_rows",
    "its_flops",
    "chunk_bulks",
    "assign_round_robin",
    "reassemble_round_robin",
    "batch_rng",
    "stack_batches",
    "split_stacked",
]
