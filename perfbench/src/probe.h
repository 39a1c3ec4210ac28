#pragma once
// Host-speed probe for the end-to-end times.
//
// The benchmark runs on a shared host whose speed for this kind of code
// drifts by up to 2x within minutes: neighbours contend for the caches while
// a plain ALU loop keeps its speed. The probe is a fixed piece of work with
// the simulator's character but none of its code: a pointer chase over a
// 4 MiB ring (more than one core's L2, so it feels the shared cache; about
// 60% of the probe), a sort of random keys (mispredicted branches) and a
// binary-heap event loop. Timed between batches, at the batch's own
// concurrency, it tracks the host's current speed, and the end-to-end times
// are rescaled by it to a reference host speed. A change to the simulator
// moves the batches and not the probe.

namespace pb {

/// Probe time, in seconds, that defines the reference host speed.
inline constexpr double kProbeReferenceS = 0.1;

/// Run the probe `jobs` times at once through exp::ParallelRunner (inline
/// when jobs is 1); returns the host seconds until all have finished. The
/// work is the same on every call. Each of the `jobs` probes keeps ~4.5 MB
/// of buffers from its first call on: read peak resident memory before the
/// first call.
[[nodiscard]] double host_probe(unsigned jobs);

}  // namespace pb
