#include "capture/synthetic.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "capture/pcap.hpp"
#include "capture/pcap_wire.hpp"
#include "check/contracts.hpp"

namespace vstream::capture {
namespace {

/// Down-direction goodput during ON periods.
constexpr double kDownRateBps{8e6};
constexpr std::uint32_t kPayloadBytes{1448};
constexpr std::uint64_t kShortBlockBytes{256ULL * 1024U};
constexpr std::uint64_t kLongBlockBytes{4ULL * 1024U * 1024U};
constexpr double kShortOffGapS{2.0};
constexpr double kLongOffGapS{4.0};

/// One connection's packet script: a small state machine that emits records
/// at strictly increasing times. Pending records (a data packet and the ACK
/// it triggers) queue in emit order so the merge only ever sees the head.
class ConnectionScript {
 public:
  ConnectionScript(std::uint64_t id, double start_spacing_s) : id_{id} {
    const std::uint64_t mod3 = id % 3;
    strategy_block_bytes_ = mod3 == 1   ? kShortBlockBytes
                            : mod3 == 2 ? kLongBlockBytes
                                        : 0;  // 0 = bulk, never pauses
    off_gap_s_ = mod3 == 1 ? kShortOffGapS : kLongOffGapS;
    zero_window_blocks_ = mod3 == 1;
    burst_blocks_ = id % 6 == 5;
    rtt_s_ = 0.02 + 0.01 * static_cast<double>(id % 4);
    t_ = start_spacing_s * static_cast<double>(id - 1);
    data_dt_s_ = static_cast<double>(kPayloadBytes) * 8.0 / kDownRateBps;
    burst_dt_s_ = 20e-6;
    queue_handshake();
  }

  /// Pop the next record; false once this connection is exhausted for the
  /// current pull (more data is queued lazily, so false never happens here —
  /// the generator stops by total record budget, not per connection).
  const PacketRecord& peek() {
    if (pending_.empty()) queue_next_cycle_step();
    return pending_.front();
  }

  void pop() { pending_.pop_front(); }

 private:
  PacketRecord base(double t, net::Direction direction) const {
    PacketRecord r;
    r.t_s = t;
    r.direction = direction;
    r.connection_id = id_;
    r.host = 0;
    return r;
  }

  void push_down_data(double t, std::uint32_t payload, bool retransmission) {
    PacketRecord r = base(t, net::Direction::kDown);
    r.seq = server_pos_;
    r.ack = client_pos_;
    r.payload_bytes = payload;
    r.flags = net::TcpFlag::kAck;
    r.is_retransmission = retransmission;
    if (!retransmission) server_pos_ += payload;
    pending_.push_back(r);
  }

  void push_up_ack(double t, std::uint64_t window_bytes) {
    PacketRecord r = base(t, net::Direction::kUp);
    r.seq = client_pos_;
    r.ack = server_pos_;
    r.window_bytes = window_bytes;
    r.flags = net::TcpFlag::kAck;
    pending_.push_back(r);
  }

  void queue_handshake() {
    PacketRecord syn = base(t_, net::Direction::kUp);
    syn.seq = 1;
    syn.window_bytes = 262144;  // a real SYN advertises a window; 0 would
                                // read as a zero-window episode downstream
    syn.flags = net::TcpFlag::kSyn;
    pending_.push_back(syn);

    PacketRecord synack = base(t_ + rtt_s_, net::Direction::kDown);
    synack.seq = 1;
    synack.ack = 2;
    synack.flags = net::TcpFlag::kSyn | net::TcpFlag::kAck;
    pending_.push_back(synack);

    client_pos_ = 2;
    server_pos_ = 2;
    t_ += rtt_s_ + rtt_s_ / 2.0;
    push_up_ack(t_, advertised_window());
    t_ += rtt_s_ / 2.0;
  }

  [[nodiscard]] std::uint64_t advertised_window() {
    ++ack_count_;
    return 262144 + (ack_count_ % 8U) * 65536;
  }

  /// Queue the next slice of the current ON period (or the whole gap
  /// machinery around it): a few data packets and their ACK.
  void queue_next_cycle_step() {
    const bool burst = burst_blocks_ && !buffering_;
    const double dt = burst ? burst_dt_s_ : data_dt_s_;
    for (int k = 0; k < 2; ++k) {
      const bool retransmission = data_packets_ != 0 && data_packets_ % 997 == 0;
      push_down_data(t_, kPayloadBytes, retransmission);
      ++data_packets_;
      if (!retransmission) block_sent_ += kPayloadBytes;
      t_ += dt;
    }
    push_up_ack(t_ - dt / 2.0, advertised_window());

    // Block boundary: bulk connections never pause; cyclers idle for the
    // OFF gap (optionally advertising a zero-window episode across it).
    if (strategy_block_bytes_ != 0 && block_sent_ >= strategy_block_bytes_) {
      block_sent_ = 0;
      buffering_ = false;
      if (zero_window_blocks_) {
        push_up_ack(t_, 0);                      // window closes...
        push_up_ack(t_ + off_gap_s_ / 2.0, advertised_window());  // ...and reopens
      }
      t_ += off_gap_s_;
    }
  }

  std::uint64_t id_;
  std::uint64_t strategy_block_bytes_{0};
  double off_gap_s_{0.0};
  bool zero_window_blocks_{false};
  bool burst_blocks_{false};
  bool buffering_{true};  ///< first block counts as the buffering phase
  double rtt_s_{0.0};
  double t_{0.0};
  double data_dt_s_{0.0};
  double burst_dt_s_{0.0};
  std::uint64_t server_pos_{1};
  std::uint64_t client_pos_{1};
  std::uint64_t block_sent_{0};
  std::uint64_t data_packets_{0};
  std::uint64_t ack_count_{0};
  std::deque<PacketRecord> pending_;
};

}  // namespace

SyntheticCaptureSummary write_synthetic_capture(const std::string& path,
                                                const SyntheticCaptureOptions& options) {
  VSTREAM_PRECONDITION(options.connections > 0, "synthetic capture needs >= 1 connection");

  constexpr std::uint64_t kDiskBytesPerRecord =
      wire::kRecordHeaderBytes + wire::kHeadersBytes;  // headers-only capture
  const std::uint64_t header_bytes = wire::kGlobalHeaderBytes;
  const std::uint64_t target_records =
      options.target_file_bytes > header_bytes
          ? (options.target_file_bytes - header_bytes) / kDiskBytesPerRecord
          : 0;

  std::vector<ConnectionScript> scripts;
  scripts.reserve(options.connections);
  for (std::size_t c = 0; c < options.connections; ++c) {
    scripts.emplace_back(static_cast<std::uint64_t>(c + 1), options.start_spacing_s);
  }

  // K-way merge on (next record time, connection index): scripts emit at
  // strictly increasing times, so the pop order — and therefore the file —
  // is fully determined by the options.
  using HeapEntry = std::pair<double, std::size_t>;
  const auto later = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.first != b.first) return a.first > b.first;  // min-heap on time
    return a.second > b.second;                        // ties: lowest index first
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(later)> heap{later};
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    heap.emplace(scripts[i].peek().t_s, i);
  }

  PcapWriter writer{path};
  SyntheticCaptureSummary summary;
  double first_t = 0.0;
  double last_t = 0.0;
  while (writer.records_written() < target_records) {
    const std::size_t index = heap.top().second;
    heap.pop();
    const PacketRecord& record = scripts[index].peek();
    if (writer.records_written() == 0) first_t = record.t_s;
    last_t = record.t_s;
    if (record.direction == net::Direction::kDown) {
      summary.down_payload_bytes += record.payload_bytes;
    }
    writer.add(record);
    scripts[index].pop();
    heap.emplace(scripts[index].peek().t_s, index);
  }
  writer.close();

  summary.records = writer.records_written();
  summary.file_bytes = header_bytes + summary.records * kDiskBytesPerRecord;
  summary.duration_s = summary.records > 0 ? last_t - first_t : 0.0;
  return summary;
}

}  // namespace vstream::capture
