"""Simulated MapReduce: jobs, splits, slot scheduling, makespan timing."""

from repro.mapreduce.job import (InputSplit, Job, JobResult, TaskContext,
                                 estimate_record_bytes, stable_hash)
from repro.mapreduce.runner import JobRunner, LocalChoice, PlanCost

__all__ = [
    "InputSplit",
    "Job",
    "JobResult",
    "TaskContext",
    "estimate_record_bytes",
    "stable_hash",
    "JobRunner",
    "LocalChoice",
    "PlanCost",
]
