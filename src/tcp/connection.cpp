#include "tcp/connection.hpp"

namespace vstream::tcp {

Connection::Connection(sim::Simulator& sim, net::Path& path, std::uint64_t id,
                       TcpOptions client_options, TcpOptions server_options)
    : id_{id} {
  auto client_to_server = std::make_shared<TagChannel>();
  auto server_to_client = std::make_shared<TagChannel>();

  client_ = std::make_unique<Endpoint>(sim, id, client_options, "client#" + std::to_string(id));
  server_ = std::make_unique<Endpoint>(sim, id, server_options, "server#" + std::to_string(id));

  // Client transmits on the up link, server on the path's data ingress —
  // the down link itself on a private path, the shared bottleneck link in
  // a multi-session topology (net/bottleneck.hpp).
  client_->attach(path.up(), client_to_server, server_to_client);
  server_->attach(path.down_ingress(), server_to_client, client_to_server);
  server_->listen();
}

Fabric::Fabric(sim::Simulator& sim, net::Path& path, std::uint64_t first_id)
    : sim_{sim}, path_{path}, next_id_{first_id} {
  path_.down().set_receiver([this](const net::TcpSegment& s) {
    const auto it = connections_.find(s.connection_id);
    if (it != connections_.end()) it->second->client().on_segment(s);
  });
  path_.up().set_receiver([this](const net::TcpSegment& s) {
    const auto it = connections_.find(s.connection_id);
    if (it != connections_.end()) it->second->server().on_segment(s);
  });
}

bool Fabric::idle() const {
  for (const auto& [id, conn] : connections_) {
    if (!conn->client().idle() || !conn->server().idle()) return false;
  }
  return true;
}

Connection& Fabric::create_connection(TcpOptions client_options, TcpOptions server_options,
                                      std::uint8_t host) {
  const std::uint64_t id = next_id_++;
  client_options.host_tag = host;
  server_options.host_tag = host;
  auto conn = std::make_unique<Connection>(sim_, path_, id, client_options, server_options);
  auto& ref = *conn;
  connections_.emplace(id, std::move(conn));
  if (host == 0) ++video_connections_;
  return ref;
}

}  // namespace vstream::tcp
