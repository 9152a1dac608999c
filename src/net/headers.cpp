#include "net/headers.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "net/checksum.hpp"

namespace ehdl::net {

size_t
FlowKeyHash::operator()(const FlowKey &k) const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(k.srcIp);
    mix(k.dstIp);
    mix(k.srcPort);
    mix(k.dstPort);
    mix(k.proto);
    return static_cast<size_t>(h);
}

Packet
PacketFactory::build(const PacketSpec &spec)
{
    const uint32_t min_len =
        kEthHdrLen + kIpv4HdrLen +
        (spec.flow.proto == kIpProtoTcp ? kTcpHdrLen : kUdpHdrLen);
    const uint32_t total = std::max(spec.totalLen, min_len);
    Packet pkt(total);
    uint8_t *p = pkt.data();

    // Ethernet.
    std::memcpy(p, spec.dstMac.data(), 6);
    std::memcpy(p + 6, spec.srcMac.data(), 6);
    storeBe<uint16_t>(p + 12, spec.etherType);

    if (spec.etherType != kEthPIp)
        return pkt;  // Non-IP test frame: headers end at Ethernet.

    // IPv4.
    uint8_t *ip = p + kEthHdrLen;
    ip[0] = 0x45;  // version 4, IHL 5
    ip[1] = 0;
    storeBe<uint16_t>(ip + 2, static_cast<uint16_t>(total - kEthHdrLen));
    storeBe<uint16_t>(ip + 4, 0x1234);  // identification
    storeBe<uint16_t>(ip + 6, 0x4000);  // DF
    ip[8] = spec.ttl;
    ip[9] = spec.flow.proto;
    storeBe<uint16_t>(ip + 10, 0);  // checksum placeholder
    storeBe<uint32_t>(ip + 12, spec.flow.srcIp);
    storeBe<uint32_t>(ip + 16, spec.flow.dstIp);
    storeBe<uint16_t>(ip + 10, internetChecksum(ip, kIpv4HdrLen));

    // L4.
    uint8_t *l4 = ip + kIpv4HdrLen;
    storeBe<uint16_t>(l4 + 0, spec.flow.srcPort);
    storeBe<uint16_t>(l4 + 2, spec.flow.dstPort);
    if (spec.flow.proto == kIpProtoUdp) {
        storeBe<uint16_t>(
            l4 + 4, static_cast<uint16_t>(total - kEthHdrLen - kIpv4HdrLen));
        storeBe<uint16_t>(l4 + 6, 0);  // UDP checksum optional
    } else if (spec.flow.proto == kIpProtoTcp) {
        storeBe<uint32_t>(l4 + 4, 1000);   // seq
        storeBe<uint32_t>(l4 + 8, 2000);   // ack
        l4[12] = 0x50;                     // data offset 5
        l4[13] = 0x18;                     // PSH|ACK
        storeBe<uint16_t>(l4 + 14, 65535); // window
    }

    // Payload fill.
    const uint32_t payload_off =
        kEthHdrLen + kIpv4HdrLen +
        (spec.flow.proto == kIpProtoTcp ? kTcpHdrLen : kUdpHdrLen);
    for (uint32_t i = payload_off; i < total; ++i)
        p[i] = spec.payloadFill;
    return pkt;
}

bool
PacketFactory::parseFlow(const Packet &pkt, FlowKey &out)
{
    if (pkt.size() < kEthHdrLen + kIpv4HdrLen)
        return false;
    const uint8_t *p = pkt.data();
    if (loadBe<uint16_t>(p + 12) != kEthPIp)
        return false;
    const uint8_t *ip = p + kEthHdrLen;
    if ((ip[0] >> 4) != 4)
        return false;
    out.proto = ip[9];
    out.srcIp = loadBe<uint32_t>(ip + 12);
    out.dstIp = loadBe<uint32_t>(ip + 16);
    out.srcPort = 0;
    out.dstPort = 0;
    const uint32_t ihl = (ip[0] & 0xf) * 4;
    if ((out.proto == kIpProtoUdp || out.proto == kIpProtoTcp) &&
        pkt.size() >= kEthHdrLen + ihl + 4) {
        const uint8_t *l4 = ip + ihl;
        out.srcPort = loadBe<uint16_t>(l4);
        out.dstPort = loadBe<uint16_t>(l4 + 2);
    }
    return true;
}

uint16_t
PacketFactory::etherType(const Packet &pkt)
{
    if (pkt.size() < kEthHdrLen)
        panic("etherType: packet too short");
    return loadBe<uint16_t>(pkt.data() + 12);
}

}  // namespace ehdl::net
