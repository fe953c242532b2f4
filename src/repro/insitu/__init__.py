"""In-situ pipeline (S16-S18, S31): reduce, select, write, for one
payload array or per-variable fields; core allocation; sampling baseline."""

from repro.insitu.allocation import (
    SeparateCores,
    SharedCores,
    enumerate_separate_allocations,
    equation_1_2_allocation,
    resolve_allocation,
)
from repro.insitu.parallel import (
    SeparateCoresEngine,
    SharedCoresEngine,
    group_aligned_partitions,
)
from repro.insitu.memory import (
    MemoryTracker,
    bitmap_resident_model,
    fulldata_resident_model,
)
from repro.insitu.pipeline import InSituPipeline, PipelineResult, default_payload
from repro.insitu.queue import QueueClosed, QueueStats
from repro.insitu.sampling import (
    Sampler,
    pairwise_conditional_entropy_errors,
    sampled_conditional_entropy,
    sampled_mutual_information,
    subset_mutual_information_errors,
)
from repro.insitu.variables import (
    MultiVariableStep,
    binnings_from_probe,
    combined_metric,
)
from repro.insitu.writer import OutputWriter, WriteStats

__all__ = [
    "SeparateCores",
    "SharedCores",
    "enumerate_separate_allocations",
    "equation_1_2_allocation",
    "resolve_allocation",
    "SeparateCoresEngine",
    "SharedCoresEngine",
    "group_aligned_partitions",
    "MemoryTracker",
    "bitmap_resident_model",
    "fulldata_resident_model",
    "InSituPipeline",
    "PipelineResult",
    "default_payload",
    "QueueClosed",
    "QueueStats",
    "Sampler",
    "pairwise_conditional_entropy_errors",
    "sampled_conditional_entropy",
    "sampled_mutual_information",
    "subset_mutual_information_errors",
    "MultiVariableStep",
    "binnings_from_probe",
    "combined_metric",
    "OutputWriter",
    "WriteStats",
]
