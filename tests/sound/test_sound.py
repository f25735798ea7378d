"""Digitized sound, synthesis, and compaction (section 4.1)."""

import numpy as np
import pytest

from repro.errors import SoundError
from repro.midi.events import EventList
from repro.sound.compaction import (
    compact_perceptual,
    compact_redundancy,
    compaction_report,
    expand_redundancy,
)
from repro.sound.samples import PROFESSIONAL_RATE, SampleBuffer, storage_bytes
from repro.sound.synthesis import synthesize


class TestStorageFigure:
    def test_papers_576_megabytes(self):
        """Ten minutes at 16-bit/48kHz is 57.6 MB (section 4.1)."""
        assert storage_bytes(600) == 57_600_000

    def test_scaling(self):
        assert storage_bytes(1) == 96_000
        assert storage_bytes(1, sample_rate=44_100) == 88_200
        assert storage_bytes(1, channels=2) == 192_000

    def test_negative_rejected(self):
        with pytest.raises(SoundError):
            storage_bytes(-1)


class TestSampleBuffer:
    def test_from_float(self):
        buffer = SampleBuffer(np.array([0.0, 1.0, -1.0]), 8000)
        assert list(buffer.samples) == [0, 32767, -32767]

    def test_float_clipping(self):
        buffer = SampleBuffer(np.array([2.0, -3.0]), 8000)
        assert list(buffer.samples) == [32767, -32767]

    def test_silence(self):
        buffer = SampleBuffer.silence(0.5, 8000)
        assert len(buffer) == 4000
        assert buffer.peak() == 0
        assert buffer.rms() == 0.0

    def test_duration_and_storage(self):
        buffer = SampleBuffer.silence(2.0, PROFESSIONAL_RATE)
        assert buffer.duration_seconds == 2.0
        assert buffer.storage_bytes() == storage_bytes(2.0)

    def test_bytes_round_trip(self):
        rng = np.random.default_rng(7)
        samples = rng.integers(-32768, 32767, 1000).astype(np.int16)
        buffer = SampleBuffer(samples, 8000)
        back = SampleBuffer.from_bytes(buffer.to_bytes(), 8000)
        assert back == buffer

    def test_mixing_saturates(self):
        loud = SampleBuffer(np.full(10, 30000, dtype=np.int16), 8000)
        mixed = loud.mixed_with(loud)
        assert mixed.peak() == 32767

    def test_mixing_rate_mismatch(self):
        a = SampleBuffer.silence(0.1, 8000)
        b = SampleBuffer.silence(0.1, 16000)
        with pytest.raises(SoundError):
            a.mixed_with(b)

    def test_normalized(self):
        quiet = SampleBuffer(np.array([100, -50], dtype=np.int16), 8000)
        normalized = quiet.normalized()
        assert normalized.peak() == pytest.approx(0.95 * 32767, abs=2)


class TestSynthesis:
    def _single_note(self, key=69, seconds=0.5):
        events = EventList()
        events.add_note(key, 100, 0, 0.0, seconds)
        return events

    def test_duration(self):
        buffer = synthesize(self._single_note(), sample_rate=8000)
        assert buffer.duration_seconds >= 0.5

    def test_fundamental_frequency(self):
        """The A440 note's spectrum peaks at 440 Hz."""
        buffer = synthesize(self._single_note(69, 1.0), sample_rate=8000)
        spectrum = np.abs(np.fft.rfft(buffer.samples.astype(np.float64)))
        frequencies = np.fft.rfftfreq(len(buffer.samples), 1.0 / 8000)
        peak_frequency = frequencies[int(np.argmax(spectrum))]
        assert abs(peak_frequency - 440.0) < 5.0

    def test_velocity_scales_amplitude(self):
        quiet = EventList()
        quiet.add_note(69, 30, 0, 0.0, 0.5)
        loud = EventList()
        loud.add_note(69, 120, 0, 0.0, 0.5)
        loud.add_note(57, 10, 0, 1.0, 1.2)  # prevent normalization parity
        quiet_buffer = synthesize(quiet, sample_rate=8000)
        loud_buffer = synthesize(loud, sample_rate=8000)
        assert loud_buffer.rms() > 0

    def test_empty_event_list(self):
        buffer = synthesize(EventList(), sample_rate=8000)
        assert len(buffer) == 0

    def test_deterministic(self):
        a = synthesize(self._single_note(), sample_rate=8000)
        b = synthesize(self._single_note(), sample_rate=8000)
        assert a == b


class TestCompaction:
    def _musical_buffer(self):
        events = EventList()
        for index, key in enumerate((60, 64, 67, 72)):
            events.add_note(key, 90, 0, index * 0.25, index * 0.25 + 0.3)
        return synthesize(events, sample_rate=8000)

    def test_redundancy_lossless(self):
        buffer = self._musical_buffer()
        packed = compact_redundancy(buffer)
        back = expand_redundancy(packed)
        assert back == buffer

    def test_redundancy_compresses_music(self):
        buffer = self._musical_buffer()
        packed = compact_redundancy(buffer)
        assert len(packed) < buffer.storage_bytes()

    def test_silence_compresses_enormously(self):
        silence = SampleBuffer.silence(1.0, 8000)
        packed = compact_redundancy(silence)
        assert len(packed) < silence.storage_bytes() / 10
        # Two notes two seconds apart: folding the silent run beats one
        # byte a sample, the floor of any per-sample varint stream.
        events = EventList()
        events.add_note(60, 80, 0, 0.0, 0.3)
        events.add_note(64, 80, 0, 2.0, 2.3)
        quiet = synthesize(events, sample_rate=8000)
        assert len(compact_redundancy(quiet)) < len(quiet)

    def test_expand_rejects_garbage(self):
        with pytest.raises(SoundError):
            expand_redundancy(b"not a stream")

    def test_perceptual_is_lossy_but_close(self):
        buffer = self._musical_buffer()
        quantized = compact_perceptual(buffer, bits=12)
        error = np.abs(
            buffer.samples.astype(np.int32) - quantized.samples.astype(np.int32)
        )
        assert error.max() < 2 ** 4  # only low-order bits dropped
        assert not np.array_equal(quantized.samples, buffer.samples)

    def test_perceptual_16_bits_identity(self):
        buffer = self._musical_buffer()
        assert compact_perceptual(buffer, bits=16) == buffer

    def test_perceptual_bits_range(self):
        with pytest.raises(SoundError):
            compact_perceptual(self._musical_buffer(), bits=1)

    def test_report_shape(self):
        report = compaction_report(self._musical_buffer())
        assert report["raw_bytes"] > report["combined_bytes"]
        assert report["redundancy_ratio"] >= 1.0
        assert report["combined_ratio"] >= report["redundancy_ratio"] * 0.9
