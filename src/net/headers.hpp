/**
 * @file
 * Protocol header definitions and a PacketFactory that builds well-formed
 * Ethernet/IPv4/UDP/TCP packets for tests and traffic generation.
 *
 * All multi-byte protocol fields are in network byte order on the wire;
 * accessors here convert to/from host order.
 */

#ifndef EHDL_NET_HEADERS_HPP_
#define EHDL_NET_HEADERS_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace ehdl::net {

/** EtherType values used by the evaluation applications. */
enum : uint16_t {
    kEthPIp = 0x0800,
    kEthPIpv6 = 0x86DD,
    kEthPArp = 0x0806,
};

/** IP protocol numbers. */
enum : uint8_t {
    kIpProtoIcmp = 1,
    kIpProtoTcp = 6,
    kIpProtoUdp = 17,
    kIpProtoIpIp = 4,
};

constexpr uint32_t kEthHdrLen = 14;
constexpr uint32_t kIpv4HdrLen = 20;
constexpr uint32_t kUdpHdrLen = 8;
constexpr uint32_t kTcpHdrLen = 20;

/** A 5-tuple flow identifier (host byte order). */
struct FlowKey
{
    uint32_t srcIp = 0;
    uint32_t dstIp = 0;
    uint16_t srcPort = 0;
    uint16_t dstPort = 0;
    uint8_t proto = 0;

    bool operator==(const FlowKey &) const = default;

    /** The reversed (return-direction) flow. */
    FlowKey
    reversed() const
    {
        return {dstIp, srcIp, dstPort, srcPort, proto};
    }
};

/** FNV-1a hash so FlowKey can key unordered containers. */
struct FlowKeyHash
{
    size_t operator()(const FlowKey &k) const;
};

/** Parameters for building a test packet. */
struct PacketSpec
{
    FlowKey flow;
    uint16_t etherType = kEthPIp;
    std::array<uint8_t, 6> srcMac = {2, 0, 0, 0, 0, 1};
    std::array<uint8_t, 6> dstMac = {2, 0, 0, 0, 0, 2};
    uint32_t totalLen = 64;  ///< Full frame length in bytes (>= headers).
    uint8_t ttl = 64;
    uint8_t payloadFill = 0xab;
};

/**
 * Builds wire-format packets and offers field accessors over Packet
 * payloads. Used by unit tests, traffic generators and examples.
 */
class PacketFactory
{
  public:
    /** Build an Ethernet/IPv4/UDP-or-TCP packet per @p spec. */
    static Packet build(const PacketSpec &spec);

    /** Parse the 5-tuple out of a packet; returns false for non-IPv4. */
    static bool parseFlow(const Packet &pkt, FlowKey &out);

    /** Read the EtherType field (host order). */
    static uint16_t etherType(const Packet &pkt);
};

}  // namespace ehdl::net

#endif  // EHDL_NET_HEADERS_HPP_
