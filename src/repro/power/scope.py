"""The acquisition-chain model: probe, amplifiers, oscilloscope.

Reproduces the statistics of the paper's setup: a loop probe feeding two
amplifier stages and a Picoscope 5203 sampling at 500 MS/s (about 4.17
samples per 120 MHz CPU cycle — the model uses an integer 4), 8-bit
vertical resolution, trigger jitter, and the averaging of 16 executions
per stored trace that both Figure 3 and Figure 4 use.

Two precision modes (``ScopeConfig.precision``):

* ``"float64-exact"`` (default) — the historical chain: one serial
  ``default_rng`` stream per capture, float64 arithmetic, byte-identical
  to every previous release.  This is the regression anchor.
* ``"float32"`` — the throughput chain: noise comes from a
  *counter-based* Philox stream indexed by the absolute trace position,
  so any chunking of a campaign (and any number of worker processes)
  reproduces the same noise byte for byte; the analog response and the
  quantizer run fully in float32 with the quantization step folded into
  the FIR kernel.  Gaussian variates are drawn by indexing a 2^16-entry
  inverse-CDF table with raw Philox halfwords — the standard
  hardware-noise-generator construction — which is ~3x faster than the
  ziggurat on one core and exact to 16-bit quantile resolution (unit
  variance by construction, excess kurtosis ~-8e-4, tails clipped at
  the 2^-16 quantile, ~4.3 sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

#: Supported acquisition-chain precision modes.
PRECISION_MODES = ("float64-exact", "float32")

#: Second Philox key word of the trigger-jitter stream (the noise stream
#: uses 0), so jitter and sample noise never share counter space.
_JITTER_KEY = 0x4A177E12

_GAUSS_TABLE: np.ndarray | None = None


def gaussian_table() -> np.ndarray:
    """The 2^16-entry float32 inverse-normal-CDF lookup table.

    Entry ``i`` is the Gaussian quantile at the midpoint probability
    ``(i + 0.5) / 2^16``, rescaled so the table's second moment is
    exactly 1 — indexing it with uniform 16-bit integers yields
    unit-variance, zero-mean (by symmetry) Gaussian variates.

    The stdlib quantiles differ from scipy's ``norm.ppf`` in the last
    float64 ulp for some entries; after the rescale and the float32 cast
    every entry is bit-equal to the table ``norm.ppf`` builds.
    """
    global _GAUSS_TABLE
    if _GAUSS_TABLE is None:
        quantiles = (np.arange(2**16, dtype=np.float64) + 0.5) / 2**16
        inv_cdf = NormalDist().inv_cdf
        table = np.array([inv_cdf(p) for p in quantiles.tolist()])
        table /= np.sqrt(np.mean(table**2))
        _GAUSS_TABLE = table.astype(np.float32)
    return _GAUSS_TABLE


@dataclass(frozen=True)
class ScopeConfig:
    """Acquisition parameters (defaults follow the paper's setup)."""

    samples_per_cycle: int = 4
    #: additive Gaussian noise sigma per raw sample, before averaging
    noise_sigma: float = 6.0
    #: analog response (probe + amplifier) convolved along time; the
    #: event's own sample carries the peak
    kernel: tuple[float, ...] = (1.0, 0.65, 0.30, 0.12)
    #: number of executions averaged per stored trace (paper: 16)
    n_averages: int = 16
    #: vertical resolution; None disables quantization
    quantize_bits: int | None = 8
    #: full-scale range in signal units; None auto-ranges per campaign
    adc_range: float | None = None
    #: max +/- trigger jitter in samples (0 = perfectly stable trigger)
    jitter_samples: int = 0
    #: ``"float64-exact"`` (bit-exact historical chain) or ``"float32"``
    #: (counter-based noise, float32 arithmetic; see module docstring)
    precision: str = "float64-exact"
    #: traces of the campaign prefix used to resolve the auto-range
    #: full-scale deterministically (float32 mode and pinned campaigns)
    calibration_traces: int = 128

    @property
    def effective_sigma(self) -> float:
        """Per-sample noise sigma after averaging ``n_averages`` runs."""
        return self.noise_sigma / np.sqrt(self.n_averages)

    def identity(self) -> tuple:
        """Every acquisition field, as a hashable tuple.

        Two scopes with equal identity produce identical traces for the
        same campaign; the service-layer dedup cache keys on this (the
        acquisition-chain counterpart of ``PipelineConfig.identity()``).
        """
        from dataclasses import fields

        return tuple(getattr(self, f.name) for f in fields(self))


class Oscilloscope:
    """Applies the acquisition chain to noise-free leakage power."""

    def __init__(self, config: ScopeConfig | None = None, seed: int = 0xACE1):
        self.config = config if config is not None else ScopeConfig()
        if self.config.precision not in PRECISION_MODES:
            raise ValueError(
                f"unknown precision {self.config.precision!r}; "
                f"expected one of {PRECISION_MODES}"
            )
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.rng = np.random.default_rng(seed)
        #: the full-scale the last quantizing capture resolved (campaign
        #: harnesses read this back to pin one LSB per campaign)
        self.last_full_scale: float | None = None

    # -- calibration ---------------------------------------------------

    def calibrate_full_scale(
        self, power_prefix: np.ndarray, extra_noise: np.ndarray | None = None
    ) -> float:
        """Deterministic full-scale estimate from a noise-free prefix.

        Filters the prefix through the analog kernel and pads its spread
        with ±4 effective sigma of noise headroom.  Because the estimate
        depends only on the campaign's *leading traces* (not on the
        noise realization or the chunk layout), every chunking of a
        campaign — and a monolithic run — resolves the same LSB.  The
        quantizer does not clip, so the headroom margin only has to be
        reasonable, not exact.
        """
        config = self.config
        prefix = np.asarray(power_prefix, dtype=np.float64)
        if extra_noise is not None:
            prefix = prefix + np.asarray(extra_noise, dtype=np.float64)
        kernel = np.asarray(config.kernel, dtype=np.float64)
        if kernel.size > 1 and prefix.size:
            prefix = _fir(kernel, prefix)
        spread = float(prefix.max() - prefix.min()) if prefix.size else 0.0
        full_scale = spread + 8.0 * float(config.effective_sigma)
        return full_scale if full_scale > 0 else 1.0

    # -- capture -------------------------------------------------------

    def capture(
        self,
        power: np.ndarray,
        extra_noise: np.ndarray | None = None,
        trace_offset: int = 0,
        full_scale: float | None = None,
    ) -> np.ndarray:
        """Turn leakage power [n_traces, n_samples] into recorded traces.

        ``extra_noise`` (same shape, or broadcastable) injects
        environment noise such as the second core's activity in the
        Linux scenario; it is added *before* averaging, i.e. it differs
        across the 16 averaged executions only through its own model.

        ``trace_offset`` names the absolute campaign position of row 0
        (float32 mode only): the counter-based noise stream is indexed
        by it, so chunked and monolithic acquisitions of one campaign
        record identical noise.  ``full_scale`` overrides the
        quantizer's auto-range (campaigns pass their pinned value).
        """
        if self.config.precision == "float32":
            return self._capture_float32(power, extra_noise, trace_offset, full_scale)
        return self._capture_exact(power, extra_noise, full_scale)

    #: traces per noise block of the float64-exact chain
    _EXACT_NOISE_BLOCK = 128

    def _capture_exact(
        self,
        power: np.ndarray,
        extra_noise: np.ndarray | None,
        full_scale: float | None,
    ) -> np.ndarray:
        config = self.config
        # Values flow exactly as they always did (same operations, same
        # RNG draws in the same order); the chain just avoids redundant
        # copies: the first allocating step transfers ownership, and
        # everything after mutates in place.
        traces = np.asarray(power, dtype=np.float64)
        owned = traces is not power  # dtype conversion already copied
        if extra_noise is not None:
            traces = traces + extra_noise
            owned = True
        kernel = np.asarray(config.kernel, dtype=np.float64)
        if kernel.size > 1:
            traces = _fir(kernel, traces)
            owned = True
        if config.jitter_samples > 0:
            shifts = self.rng.integers(
                -config.jitter_samples, config.jitter_samples + 1, size=traces.shape[0]
            )
            traces = _apply_jitter(traces, shifts)
            owned = True
        # Averaging n executions divides the amplifier noise by sqrt(n).
        # Drawn and added a row block at a time: consecutive draws are
        # the whole-matrix draw in C order, bit for bit, without a
        # second full-size matrix.
        if not owned:
            traces = traces.copy()
        for lo in range(0, traces.shape[0], self._EXACT_NOISE_BLOCK):
            rows = traces[lo : lo + self._EXACT_NOISE_BLOCK]
            rows += self.rng.normal(0.0, config.effective_sigma, size=rows.shape)
        if config.quantize_bits is not None:
            return self._quantize(traces, full_scale)
        self.last_full_scale = None
        return traces.astype(np.float32)

    #: traces per block of the float32 chain: one block's working set
    #: (a handful of float32/intp copies of block x n_samples) stays
    #: cache-resident, so the whole conv+jitter+noise+quantize pipeline
    #: costs about one DRAM round trip instead of one per stage
    #: (measured optimum on the figure-3 geometry; 2x either way costs
    #: ~15% through cache spill or per-block overhead)
    _FLOAT32_BLOCK = 128

    def _capture_float32(
        self,
        power: np.ndarray,
        extra_noise: np.ndarray | None,
        trace_offset: int,
        full_scale: float | None,
    ) -> np.ndarray:
        config = self.config
        source = np.asarray(power)
        n_traces, n_samples = source.shape

        # Resolve the LSB first so the division by it rides along with
        # the FIR kernel (folded in, not a separate full-matrix pass).
        lsb: float | None = None
        if config.quantize_bits is not None:
            if full_scale is None:
                full_scale = config.adc_range
            if full_scale is None:
                k = min(config.calibration_traces, n_traces)
                prefix_extra = None
                if extra_noise is not None:
                    prefix_extra = np.asarray(extra_noise, dtype=np.float64)
                    if prefix_extra.ndim == 2:
                        prefix_extra = prefix_extra[:k]
                full_scale = self.calibrate_full_scale(
                    source[:k], extra_noise=prefix_extra
                )
            self.last_full_scale = float(full_scale)
            lsb = float(full_scale) / 2 ** config.quantize_bits
        else:
            self.last_full_scale = None

        scale = 1.0 if lsb is None else 1.0 / lsb
        kernel = np.asarray(config.kernel, dtype=np.float64)
        kernel32 = (
            (kernel * scale).astype(np.float32) if kernel.size > 1 else None
        )
        extra = (
            np.asarray(extra_noise, dtype=np.float32)
            if extra_noise is not None
            else None
        )
        noisy = config.noise_sigma > 0
        scaled_table = (
            gaussian_table() * np.float32(float(config.effective_sigma) * scale)
            if noisy
            else None
        )
        words = self._noise_words_per_trace(n_samples)
        bit_gen = np.random.Philox(key=[self.seed, 0])
        if noisy and trace_offset:
            bit_gen.advance(trace_offset * (words // 4))
        shifts = (
            self._jitter_shifts(n_traces, trace_offset)
            if config.jitter_samples > 0
            else None
        )
        sample_index = np.arange(n_samples)

        out = np.empty((n_traces, n_samples), dtype=np.float32)
        size = min(self._FLOAT32_BLOCK, n_traces)
        # Every intermediate lives in block-sized buffers reused across
        # the loop (and across captures, via the module-level cache):
        # the working set stays cache-resident and nothing is
        # reallocated (fresh multi-MB temporaries would be mmap-backed
        # and page-fault on every touch).
        buffers = _block_buffers(size, n_samples)
        scratch = buffers["scratch"]
        filtered = buffers["filtered"] if kernel32 is not None else None
        tap_buffer = (
            buffers["tap"]
            if kernel32 is not None and kernel32.size > 1
            else None
        )
        index_buffer = buffers["index"] if noisy else None
        noise_buffer = buffers["noise"] if noisy else None
        for low in range(0, n_traces, size):
            high = min(low + size, n_traces)
            rows = high - low
            block = scratch[:rows]
            # Column-blocked copy: linearizes the transposed power layout
            # the sample-major evaluator hands over (a plain strided copy
            # degenerates to an element-wise transpose).
            for start in range(0, n_samples, 128):
                stop = min(start + 128, n_samples)
                block[:, start:stop] = source[low:high, start:stop]
            if extra is not None:
                block += extra[low:high] if extra.ndim == 2 else extra
            if kernel32 is not None:
                # Causal FIR, vectorized over the cache-resident block.
                assert filtered is not None and tap_buffer is not None
                response = filtered[:rows]
                np.multiply(block, kernel32[0], out=response)
                for tap in range(1, kernel32.size):
                    shifted = tap_buffer[:rows]
                    np.multiply(block, kernel32[tap], out=shifted)
                    response[:, tap:] += shifted[:, : n_samples - tap]
                block = response
            elif scale != 1.0:
                block *= np.float32(scale)
            if shifts is not None:
                # Roll each row by its shift via one flat gather into
                # the reused jitter buffers (out[i, j] = in[i, (j - s_i)
                # mod n], as np.roll would).
                columns = buffers["jitter_index"][:rows]
                np.subtract(sample_index[None, :], shifts[low:high, None], out=columns)
                columns %= n_samples
                columns += buffers["row_offsets"][:rows]
                rolled = buffers["jitter"][:rows]
                np.take(block.reshape(-1), columns, out=rolled, mode="clip")
                block = rolled
            if noisy:
                assert index_buffer is not None and noise_buffer is not None
                raw = bit_gen.random_raw(rows * words)
                halfwords = raw.view(np.uint16).reshape(rows, words * 4)[
                    :, :n_samples
                ]
                # Pre-widen the indices once (fancy indexing would cast
                # to intp into a fresh allocation on every gather).
                np.copyto(index_buffer[:rows], halfwords, casting="unsafe")
                np.take(
                    scaled_table,
                    index_buffer[:rows],
                    out=noise_buffer[:rows],
                    mode="clip",
                )
                block += noise_buffer[:rows]
            if lsb is not None:
                np.rint(block, out=block)
                # Fused rescale-and-write: one pass instead of two.
                np.multiply(block, np.float32(lsb), out=out[low:high])
            else:
                out[low:high] = block
        return out

    # -- counter-based streams (float32 mode) --------------------------

    def _noise_words_per_trace(self, n_samples: int) -> int:
        """64-bit words of the noise tape per trace, padded to whole
        Philox blocks (4 words) so any trace offset is reachable with
        ``advance`` — the price is at most 15 unused halfwords a trace.
        Trace ``trace_offset + i`` always consumes the same counter
        range of the campaign's Philox stream, whatever chunk (or
        worker) it lands in."""
        return 4 * ((n_samples + 15) // 16)

    def _jitter_shifts(self, n_traces: int, trace_offset: int) -> np.ndarray:
        """Per-trace trigger shifts from a dedicated counter stream.

        One Philox block (4 words) per trace keeps ``advance`` exact for
        any offset; only the block's first word is used.
        """
        j = self.config.jitter_samples
        bit_gen = np.random.Philox(key=[self.seed, _JITTER_KEY])
        if trace_offset:
            bit_gen.advance(trace_offset)
        raw = bit_gen.random_raw(4 * n_traces)[::4]
        return (raw % (2 * j + 1)).astype(np.int64) - j

    # -- quantizer (float64-exact path) --------------------------------

    def _quantize(self, traces: np.ndarray, full_scale: float | None = None) -> np.ndarray:
        """8-bit ADC model, fused: returns float32 quantized traces.

        Operates in place (``traces`` is owned by ``capture`` at this
        point) and casts on the final multiply, so the chain costs one
        pass instead of four temporaries.  ``full_scale`` pins the
        range (campaign-level calibration); otherwise the config range
        or the observed spread is used, exactly as always.
        """
        config = self.config
        if full_scale is None:
            full_scale = config.adc_range
        if full_scale is None:
            spread = float(np.max(traces) - np.min(traces))
            full_scale = spread if spread > 0 else 1.0
        self.last_full_scale = float(full_scale)
        lsb = full_scale / (2 ** (config.quantize_bits or 8))
        np.divide(traces, lsb, out=traces)
        np.round(traces, out=traces)
        quantized = np.empty_like(traces, dtype=np.float32)
        np.multiply(traces, lsb, out=quantized, casting="unsafe")
        return quantized


#: One cached set of float32-chain block buffers, keyed by geometry —
#: captures of one campaign (and of every same-shape campaign) reuse it
#: instead of re-faulting ~10 MB of fresh mmap pages per call.
_BLOCK_BUFFERS: dict[tuple[int, int], dict[str, np.ndarray]] = {}


def _block_buffers(rows: int, n_samples: int) -> dict[str, np.ndarray]:
    key = (rows, n_samples)
    buffers = _BLOCK_BUFFERS.get(key)
    if buffers is None:
        buffers = {
            "scratch": np.empty((rows, n_samples), dtype=np.float32),
            "filtered": np.empty((rows, n_samples), dtype=np.float32),
            "tap": np.empty((rows, n_samples), dtype=np.float32),
            "index": np.empty((rows, n_samples), dtype=np.intp),
            "noise": np.empty((rows, n_samples), dtype=np.float32),
            "jitter_index": np.empty((rows, n_samples), dtype=np.intp),
            "jitter": np.empty((rows, n_samples), dtype=np.float32),
            "row_offsets": (np.arange(rows) * n_samples)[:, None],
        }
        _BLOCK_BUFFERS.clear()
        _BLOCK_BUFFERS[key] = buffers
    return buffers


def _fir(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal FIR filter along the rows of ``x``, in float64.

    Bit-identical to scipy's ``lfilter(kernel, [1.0], x, axis=1)``: the
    same full ``np.convolve`` per row, truncated to the row length.
    Keep it that way — a vectorized shifted multiply-add sums the taps
    in another order and moves the last bit of some samples.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n_samples = x.shape[1]
    full = np.empty((x.shape[0], n_samples + kernel.size - 1))
    for row, out in zip(x, full):
        out[:] = np.convolve(kernel, row)
    return full[:, :n_samples]


def _apply_jitter(traces: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Roll every row by its shift in one fancy-index gather.

    Equivalent to ``np.stack([np.roll(row, s) for row, s in ...])`` —
    ``out[i, j] = traces[i, (j - shifts[i]) mod n]`` — without the
    per-row Python loop.
    """
    n_samples = traces.shape[1]
    columns = (np.arange(n_samples)[None, :] - shifts[:, None]) % n_samples
    return traces[np.arange(traces.shape[0])[:, None], columns]
