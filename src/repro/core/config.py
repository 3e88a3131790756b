"""Streamer configuration register map and job descriptors.

The core configures the streamer "through its memory-mapped register
interface, which enables few-to-single-cycle setups" (§III). We expose
that interface through the ``scfgw``/``scfgr`` instructions; addresses
encode ``lane * 32 + register``.

Writing a *launch* register (RPTR/WPTR/IRPTR/IWPTR) snapshots the shadow
configuration into a job and enqueues it — the shadowed interface lets
the core prepare the next job while one is running (§II-A, label 1 in
Fig. 1).
"""

from repro.errors import ConfigError

#: Configuration register offsets within a lane's 32-register window.
REG_STATUS = 0      # read-only: busy flag | queued jobs
REG_REPEAT = 1      # per-element repetition count (>= 1)
REG_BOUND_0 = 2     # iteration counts per dimension (elements, >= 1)
REG_BOUND_1 = 3
REG_BOUND_2 = 4
REG_BOUND_3 = 5
REG_STRIDE_0 = 6    # byte strides per dimension
REG_STRIDE_1 = 7
REG_STRIDE_2 = 8
REG_STRIDE_3 = 9
REG_IDX_CFG = 10    # bit 0: index size (0 = 16-bit, 1 = 32-bit); bits 4..8: extra shift
REG_DATA_BASE = 11  # indirection data base address
REG_IDX_BASE_B = 12   # intersection: second (b-side) index array base
REG_DATA_BASE_B = 13  # intersection: second (b-side) value array base
REG_MATCH_COUNT = 14  # read-only: matches found by the last intersection job

REG_RPTR_0 = 16     # launch affine read, 1..4 dimensions
REG_RPTR_1 = 17
REG_RPTR_2 = 18
REG_RPTR_3 = 19
REG_WPTR_0 = 20     # launch affine write, 1..4 dimensions
REG_WPTR_1 = 21
REG_WPTR_2 = 22
REG_WPTR_3 = 23
REG_IRPTR = 24      # launch indirect read (value = index array address)
REG_IWPTR = 25      # launch indirect write
REG_ISECT_CNT = 26  # launch intersection count pass (value = a-side index base)
REG_ISECT_STR = 27  # launch intersection stream pass (value = a-side index base)

LANE_WINDOW = 32

#: Job modes.
AFFINE_READ = "affine_read"
AFFINE_WRITE = "affine_write"
INDIRECT_READ = "indirect_read"
INDIRECT_WRITE = "indirect_write"
INTERSECT_COUNT = "isect_count"
INTERSECT_STREAM = "isect_stream"

#: Index size codes for REG_IDX_CFG bit 0.
IDX_SIZE_16 = 0
IDX_SIZE_32 = 1


def cfg_addr(lane, reg):
    """Compute the scfgw/scfgr address of ``reg`` in ``lane``'s window."""
    if reg < 0 or reg >= LANE_WINDOW:
        raise ConfigError(f"config register {reg} out of window")
    return lane * LANE_WINDOW + reg


def idx_cfg_value(index_bits, extra_shift=0):
    """Encode REG_IDX_CFG for an index width and higher-axis shift."""
    if index_bits == 16:
        code = IDX_SIZE_16
    elif index_bits == 32:
        code = IDX_SIZE_32
    else:
        raise ConfigError(f"unsupported index width {index_bits}")
    if not 0 <= extra_shift < 32:
        raise ConfigError(f"extra shift {extra_shift} out of range")
    return code | (extra_shift << 4)


class SsrJob:
    """A snapshot of the shadow configuration bound to one stream job."""

    __slots__ = ("mode", "dims", "start", "bounds", "strides", "repeat",
                 "index_bits", "extra_shift", "data_base", "idx_base_b",
                 "data_base_b")

    def __init__(self, mode, dims, start, bounds, strides, repeat=1,
                 index_bits=32, extra_shift=0, data_base=0, idx_base_b=0,
                 data_base_b=0):
        if repeat < 1:
            raise ConfigError(f"repeat must be >= 1, got {repeat}")
        if not 1 <= dims <= 4:
            raise ConfigError(f"dims must be 1..4, got {dims}")
        for d in range(dims):
            if bounds[d] < 1:
                raise ConfigError(f"bound {d} must be >= 1, got {bounds[d]}")
        self.mode = mode
        self.dims = dims
        self.start = start
        self.bounds = tuple(bounds)
        self.strides = tuple(strides)
        self.repeat = repeat
        self.index_bits = index_bits
        self.extra_shift = extra_shift
        self.data_base = data_base
        self.idx_base_b = idx_base_b
        self.data_base_b = data_base_b

    @property
    def is_indirect(self):
        return self.mode in (INDIRECT_READ, INDIRECT_WRITE)

    @property
    def is_intersect(self):
        """True for intersection (count/stream) jobs."""
        return self.mode in (INTERSECT_COUNT, INTERSECT_STREAM)

    @property
    def is_write(self):
        return self.mode in (AFFINE_WRITE, INDIRECT_WRITE)

    def __repr__(self):
        return (f"SsrJob({self.mode}, dims={self.dims}, start=0x{self.start:x}, "
                f"bounds={self.bounds[:self.dims]}, strides={self.strides[:self.dims]})")


class ShadowConfig:
    """The writable shadow configuration of one lane."""

    __slots__ = ("repeat", "bounds", "strides", "idx_cfg", "data_base",
                 "idx_base_b", "data_base_b")

    def __init__(self):
        self.repeat = 1
        self.bounds = [1, 1, 1, 1]
        self.strides = [8, 0, 0, 0]
        self.idx_cfg = IDX_SIZE_32
        self.data_base = 0
        self.idx_base_b = 0
        self.data_base_b = 0

    @property
    def index_bits(self):
        return 32 if (self.idx_cfg & 1) == IDX_SIZE_32 else 16

    @property
    def extra_shift(self):
        return (self.idx_cfg >> 4) & 0x1F

    def snapshot(self, mode, dims, start):
        """Create an :class:`SsrJob` from the current shadow state."""
        if mode in (INDIRECT_READ, INDIRECT_WRITE, INTERSECT_COUNT,
                    INTERSECT_STREAM):
            # Indirection fixes the affine iterator to a 1-D walk of the
            # index array (§II-A): bounds[0] = element count; the stride
            # is the index element size, handled by the serializer.
            # Intersection jobs additionally carry the b-side element
            # count in bounds[1] and the b-side bases in the dedicated
            # shadow registers.
            dims = 1
        return SsrJob(mode, dims, start, self.bounds, self.strides,
                      repeat=self.repeat, index_bits=self.index_bits,
                      extra_shift=self.extra_shift, data_base=self.data_base,
                      idx_base_b=self.idx_base_b,
                      data_base_b=self.data_base_b)
