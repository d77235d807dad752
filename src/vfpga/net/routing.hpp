// Longest-prefix-match routing table.
//
// Models the kernel FIB consulted on every sendto(): the test setup adds
// a host route for the FPGA's address through the virtio-net interface.
// Routes are (prefix, length, interface, optional gateway); lookup is
// longest-prefix-match with on-link routes returning the destination
// itself as the next hop.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "vfpga/net/addr.hpp"

namespace vfpga::net {

struct Route {
  Ipv4Addr prefix{};
  u8 prefix_length = 0;      ///< 0..32
  u32 interface_id = 0;
  std::optional<Ipv4Addr> gateway;  ///< nullopt: destination is on-link
};

struct NextHop {
  Ipv4Addr address{};  ///< neighbour the frame is addressed to
  u32 interface_id = 0;
};

class RoutingTable {
 public:
  void add(const Route& route);

  /// Longest-prefix match; nullopt when no route covers `dst`
  /// (EHOSTUNREACH).
  [[nodiscard]] std::optional<NextHop> lookup(Ipv4Addr dst) const;

  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  static bool prefix_matches(const Route& route, Ipv4Addr dst);
  std::vector<Route> routes_;
};

}  // namespace vfpga::net
