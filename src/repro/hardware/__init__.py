"""Hardware models: FPGA end-host prototype and memory scaling."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".memory_model": ("BUCKET_ID_BYTES", "COUNTER_BYTES",
                      "SHOAL_PAIR_STATE_BYTES", "TOKEN_BYTES",
                      "ShaleMemoryModel", "shoal_on_chip_bytes"),
    ".pieo_hw": ("PieoHardwareModel",),
    ".prototype": ("HardwareNetwork", "HardwareNode", "HardwareTimings"),
    ".resources": ("ResourceObservation", "observe_resources",
                   "provision_memory"),
})
