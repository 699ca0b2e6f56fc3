"""Workload generators matching the paper's evaluation (§6, Tables 1-3).

All generators are seeded and deterministic: the ShareGPT-like
interactive sampler, 8000-token long prompts, LoRA adapter-per-request
streams, the multi-turn chatbot of Figure 13, and the Parti-prompt /
audio-description producer workloads.
"""

from repro.workloads.arrivals import (
    RateShape,
    TenantProfile,
    closed_loop_user,
    diurnal_shape,
    flash_crowd_shape,
    multi_region_tenants,
    nhpp_stream,
    poisson_arrival_times,
    steady_shape,
)
from repro.workloads.chatbot import ChatbotWorkload
from repro.workloads.codesummary import code_summary_requests
from repro.workloads.longprompt import long_prompt_requests
from repro.workloads.lora import lora_requests
from repro.workloads.producers import producer_requests
from repro.workloads.sharegpt import ShareGPTSampler, sharegpt_requests

__all__ = [
    "ChatbotWorkload",
    "RateShape",
    "ShareGPTSampler",
    "TenantProfile",
    "code_summary_requests",
    "closed_loop_user",
    "diurnal_shape",
    "flash_crowd_shape",
    "long_prompt_requests",
    "lora_requests",
    "multi_region_tenants",
    "nhpp_stream",
    "poisson_arrival_times",
    "producer_requests",
    "sharegpt_requests",
    "steady_shape",
]
