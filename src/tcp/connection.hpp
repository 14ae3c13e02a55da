// A client<->server TCP connection over a shared Path, plus the Fabric that
// multiplexes many parallel connections onto the path (Netflix and the iPad
// YouTube client open dozens of connections per streaming session).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/path.hpp"
#include "tcp/endpoint.hpp"

namespace vstream::tcp {

class Connection {
 public:
  /// Both endpoints are created immediately; call `open()` to start the
  /// three-way handshake from the client side.
  Connection(sim::Simulator& sim, net::Path& path, std::uint64_t id, TcpOptions client_options,
             TcpOptions server_options);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void open() { client_->connect(); }

  [[nodiscard]] Endpoint& client() { return *client_; }
  [[nodiscard]] Endpoint& server() { return *server_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
  std::unique_ptr<Endpoint> client_;
  std::unique_ptr<Endpoint> server_;
};

/// Creates connections over one Path and demultiplexes arriving segments to
/// the right endpoint by connection id. All connections share the two links,
/// so they contend for the same bottleneck.
class Fabric {
 public:
  /// `first_id` seeds the connection-id counter. A private path keeps the
  /// default 1; a shared-bottleneck topology passes
  /// `SharedBottleneck::first_connection_id(client)` so every id carries
  /// the client index in its high 32 bits and the bottleneck router can
  /// demultiplex segments back to the right access leg.
  Fabric(sim::Simulator& sim, net::Path& path, std::uint64_t first_id = 1);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create (but do not open) a new connection. The server side is put into
  /// listen state automatically. `host` tags every segment with the server
  /// identity (0 = video CDN, 1+ = auxiliary hosts).
  Connection& create_connection(TcpOptions client_options, TcpOptions server_options,
                                std::uint8_t host = 0);

  /// Connections created to the video CDN (host 0); auxiliary hosts'
  /// connections are not counted.
  [[nodiscard]] std::size_t video_connection_count() const { return video_connections_; }
  /// Every endpoint of every connection is idle (Endpoint::idle). With the
  /// path's links empty too, no pending event can reach this fabric.
  [[nodiscard]] bool idle() const;
  [[nodiscard]] Connection& connection(std::uint64_t id) { return *connections_.at(id); }
  [[nodiscard]] net::Path& path() { return path_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  net::Path& path_;
  std::uint64_t next_id_{1};
  std::size_t video_connections_{0};
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
};

}  // namespace vstream::tcp
