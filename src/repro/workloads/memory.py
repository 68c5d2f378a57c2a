"""Memory-dependent performance: the Lambda CPU-allocation model.

AWS Lambda allocates CPU in proportion to configured memory — one full
vCPU per ~1,769 MB.  A workload therefore runs slower below its CPU
saturation point, with the slowdown bounded by its non-parallelizable
fraction (Amdahl), and degrades sharply once memory drops below its
working set.  The paper's mesh spans the whole memory ladder (§3.3); this
model is what makes choosing a rung a real decision (see
:mod:`repro.core.memory_advisor` — the SAAF performance/cost-prediction
lineage the paper cites).

The Figure-9 runtime calibrations are taken at the 2 GB setting, so
factors here are normalized to ``REFERENCE_MEMORY_MB``.
"""

from repro.common.errors import ConfigurationError

# AWS Lambda: one full vCPU per 1,769 MB of configured memory.
VCPU_SATURATION_MB = 1769.0

# Fraction of a typical workload's runtime that scales with CPU allocation.
DEFAULT_PARALLEL_FRACTION = 0.85

# Exponent of the slowdown once memory drops below the working set.
PRESSURE_EXPONENT = 1.5

# Working set below which memory pressure slows a workload further.
MIN_MEMORY_MB = 256

# The rung the Figure-9 factors were calibrated at.
REFERENCE_MEMORY_MB = 2048


def _raw_factor(memory_mb, vcpus, parallel_fraction):
    """Runtime multiplier at ``memory_mb`` vs. full CPU allocation."""
    if memory_mb <= 0:
        raise ConfigurationError("memory must be positive")
    cpu_alloc = memory_mb / VCPU_SATURATION_MB
    usable = min(cpu_alloc, vcpus)
    usable = max(usable, 0.05)  # the platform floor: some CPU always runs
    factor = (1.0 - parallel_fraction) + parallel_fraction * (
        vcpus / usable)
    factor = max(factor, 1.0)
    if memory_mb < MIN_MEMORY_MB:
        factor *= (MIN_MEMORY_MB / memory_mb) ** PRESSURE_EXPONENT
    return factor


def memory_speed_factor(memory_mb, vcpus=1.0,
                        parallel_fraction=DEFAULT_PARALLEL_FRACTION):
    """Runtime multiplier at ``memory_mb`` relative to the reference rung.

    1.0 at the reference (2 GB, where Figure 9 was calibrated); > 1 when
    the setting starves the workload of CPU or memory; < 1 when extra
    memory buys more vCPU than the reference had.

    >>> memory_speed_factor(2048, vcpus=1) == 1.0
    True
    """
    if vcpus <= 0:
        raise ConfigurationError("vcpus must be positive")
    if not 0 <= parallel_fraction < 1:
        raise ConfigurationError("parallel_fraction must be in [0, 1)")
    reference = _raw_factor(REFERENCE_MEMORY_MB, vcpus, parallel_fraction)
    return _raw_factor(memory_mb, vcpus, parallel_fraction) / reference


def saturation_memory_mb(vcpus):
    """Memory at which the workload has all the CPU it can use."""
    return vcpus * VCPU_SATURATION_MB
