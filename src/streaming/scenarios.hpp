// Canonical scenario catalog: one named SessionConfig per (service,
// container, application) combination the paper's Table 1 supports, across
// representative vantage networks. The examples exercise these shapes ad
// hoc; the determinism audit (`tools/determinism_audit`) and the
// determinism tests run every one of them twice with the same seed and
// require bit-identical state digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "streaming/session.hpp"
#include "streaming/world.hpp"

namespace vstream::streaming {

struct NamedScenario {
  std::string name;
  SessionConfig config;
};

/// Every supported Table-1 combination, each on a representative vantage,
/// plus interruption and idle-restart variants. `capture_duration_s` scales
/// every scenario's capture window (the paper used 180 s; tests use less).
[[nodiscard]] std::vector<NamedScenario> canonical_scenarios(double capture_duration_s = 180.0);

/// Fault-injection catalog (net/dynamics.hpp): sessions that hit blackouts,
/// burst-loss windows, rate halvings, and link flaps mid-stream, with the
/// retry/rebuffer machinery enabled. Kept separate from the canonical
/// catalog because these sessions carry non-zero ResilienceStats, which the
/// packet-only batch path cannot derive on its own. Fault windows are
/// positioned relative to `capture_duration_s` so the faults always land
/// mid-capture, whatever the window; the determinism audit runs these
/// twin-run, same as the canonical set.
[[nodiscard]] std::vector<NamedScenario> fault_scenarios(double capture_duration_s = 180.0);

/// Fold a session's headline outcome (bytes, events, connections, player
/// progress, recovery dynamics) into `digest`, after the run. This is the
/// result half of fingerprint_session, shared with the streamed-sweep
/// digest (runner/session_sweep.hpp) so both fingerprint a session the same
/// way: a divergence the event-order stream somehow missed still flips it.
void fold_outcome(check::StateDigest& digest, const SessionResult& result);

/// Run one scenario with a digest attached and fingerprint the result
/// through run_fingerprinted (streaming/world.hpp). `sink`, when given, is
/// attached to the run's trace bus — which arms the span layer and every
/// probe. Tracing is digest-neutral by contract, so a fingerprint must not
/// change between an unobserved and an armed run; the determinism audit
/// runs its second twin armed to enforce exactly that.
[[nodiscard]] RunFingerprint fingerprint_session(SessionConfig config,
                                                 obs::TraceSink* sink = nullptr);

}  // namespace vstream::streaming
