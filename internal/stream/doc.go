// Package stream is the real-time serving engine for personalized HRTFs:
// chunk-at-a-time binaural rendering and angle-of-arrival tracking with
// bounded latency and bounded memory, the workloads the paper's payoff
// applications (§2, §8 — spatial audio for a moving head, HRTF-aware AoA)
// actually run.
//
// Layers:
//
//   - Convolver: block convolution of one input stream against a set of
//     arrivals (angle, gain, delay, ear swap) through a frequency-domain
//     delay line — one forward FFT and two inverse FFTs per block however
//     many arrivals — using per-angle far-field HRIR spectra precomputed
//     once per hrtf.Table (through the dsp plan cache), with click-free
//     Bartlett crossfades on angle and profile switches. The steady-state
//     hot path performs no allocations.
//   - Scene: the one render engine. N sources over one listener, each a
//     convolver whose arrivals are its direct path plus optional room
//     images, folded into the table span by head yaw with the ears
//     swapped for right-hemisphere arrivals. It owns locking, the shared
//     output timeline and backpressure accounting (bounded pending
//     input, explicit overruns and underruns), and is safe for
//     concurrent producers and consumers.
//   - Session: the single-source API, a façade over a one-source
//     free-field Scene.
//   - AoATracker: sliding-window relative-channel cross-correlation plus
//     eq. 11 matching over incoming stereo frames, with hysteresis and
//     exponential smoothing, emitting one angle estimate per hop.
//
// The batch renderers (render.RenderMoving, render.RoomRenderer and, on
// top of them, uniq.Profile.TrackHead) drive a one-source Scene one hop
// at a time, so the streaming and whole-buffer paths share one kernel and
// cannot drift.
package stream
