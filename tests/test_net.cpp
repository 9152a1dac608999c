/**
 * @file
 * Unit and property tests for src/net: packet buffers with XDP headroom,
 * header construction/parsing, and Internet checksums (including the
 * incremental RFC 1624 form the DNAT pipeline relies on).
 */

#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"

#include <fstream>

namespace ehdl::net {
namespace {

TEST(Packet, BuildFromBytes)
{
    Packet pkt(std::vector<uint8_t>{1, 2, 3, 4});
    EXPECT_EQ(pkt.size(), 4u);
    EXPECT_EQ(pkt.at(0), 1);
    EXPECT_EQ(pkt.at(3), 4);
    EXPECT_EQ(pkt.headroom(), kXdpHeadroom);
}

TEST(Packet, SetAndBounds)
{
    Packet pkt(8u);
    pkt.set(7, 0xaa);
    EXPECT_EQ(pkt.at(7), 0xaa);
    EXPECT_THROW(pkt.at(8), PanicError);
    EXPECT_THROW(pkt.set(8, 1), PanicError);
}

TEST(Packet, AdjustHeadGrows)
{
    Packet pkt(std::vector<uint8_t>{9, 9});
    ASSERT_TRUE(pkt.adjustHead(-4));
    EXPECT_EQ(pkt.size(), 6u);
    EXPECT_EQ(pkt.at(4), 9);
    pkt.set(0, 7);
    EXPECT_EQ(pkt.bytes().front(), 7);
}

TEST(Packet, AdjustHeadShrinkAndLimits)
{
    Packet pkt(std::vector<uint8_t>(10, 1));
    ASSERT_TRUE(pkt.adjustHead(4));
    EXPECT_EQ(pkt.size(), 6u);
    EXPECT_FALSE(pkt.adjustHead(100));              // beyond the end
    EXPECT_FALSE(pkt.adjustHead(-10000));           // beyond headroom
    EXPECT_EQ(pkt.size(), 6u);                      // unchanged on failure
}

TEST(Headers, BuildParseRoundTrip)
{
    PacketSpec spec;
    spec.flow = {0x0a000001, 0xc0a80001, 1234, 53, kIpProtoUdp};
    spec.totalLen = 100;
    Packet pkt = PacketFactory::build(spec);
    EXPECT_EQ(pkt.size(), 100u);
    FlowKey parsed;
    ASSERT_TRUE(PacketFactory::parseFlow(pkt, parsed));
    EXPECT_EQ(parsed, spec.flow);
    EXPECT_EQ(PacketFactory::etherType(pkt), kEthPIp);
}

TEST(Headers, TcpVariant)
{
    PacketSpec spec;
    spec.flow = {1, 2, 80, 443, kIpProtoTcp};
    Packet pkt = PacketFactory::build(spec);
    FlowKey parsed;
    ASSERT_TRUE(PacketFactory::parseFlow(pkt, parsed));
    EXPECT_EQ(parsed.proto, kIpProtoTcp);
    EXPECT_EQ(parsed.srcPort, 80);
}

TEST(Headers, NonIpNotParsed)
{
    PacketSpec spec;
    spec.etherType = kEthPArp;
    Packet pkt = PacketFactory::build(spec);
    FlowKey parsed;
    EXPECT_FALSE(PacketFactory::parseFlow(pkt, parsed));
}

TEST(Headers, Ipv4ChecksumValidatesToZero)
{
    PacketSpec spec;
    spec.flow = {0x01020304, 0x05060708, 1000, 2000, kIpProtoUdp};
    Packet pkt = PacketFactory::build(spec);
    // Sum over the header including the checksum field must be 0xffff.
    const uint16_t sum =
        onesComplementSum(pkt.data() + kEthHdrLen, kIpv4HdrLen);
    EXPECT_EQ(sum, 0xffff);
}

TEST(Headers, ReversedFlow)
{
    FlowKey k{1, 2, 10, 20, kIpProtoUdp};
    FlowKey r = k.reversed();
    EXPECT_EQ(r.srcIp, 2u);
    EXPECT_EQ(r.dstIp, 1u);
    EXPECT_EQ(r.srcPort, 20);
    EXPECT_EQ(r.dstPort, 10);
    EXPECT_EQ(r.reversed(), k);
}

TEST(Headers, FlowKeyHashSpreads)
{
    FlowKeyHash hash;
    FlowKey a{1, 2, 3, 4, 17};
    FlowKey b{1, 2, 3, 5, 17};
    EXPECT_NE(hash(a), hash(b));
    EXPECT_EQ(hash(a), hash(a));
}

TEST(Headers, MinimumLengthEnforced)
{
    PacketSpec spec;
    spec.totalLen = 10;  // below headers
    Packet pkt = PacketFactory::build(spec);
    EXPECT_GE(pkt.size(), kEthHdrLen + kIpv4HdrLen + kUdpHdrLen);
}

TEST(Checksum, KnownVector)
{
    // RFC 1071 example bytes.
    const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(onesComplementSum(data, sizeof(data)), 0xddf2);
    EXPECT_EQ(internetChecksum(data, sizeof(data)), 0x220d);
}

TEST(Checksum, OddLength)
{
    const uint8_t data[] = {0x12, 0x34, 0x56};
    EXPECT_EQ(onesComplementSum(data, 3), 0x1234 + 0x5600);
}

/** Incremental updates must agree with full recomputation. */
class ChecksumUpdateTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ChecksumUpdateTest, Incremental32MatchesRecompute)
{
    Rng rng(GetParam());
    std::vector<uint8_t> buf(40);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.next());
    const size_t field = 2 * (rng.below(18));  // 16-bit aligned offset
    const uint16_t before = internetChecksum(buf.data(), buf.size());

    const uint32_t old_val = loadBe<uint32_t>(buf.data() + field);
    const uint32_t new_val = static_cast<uint32_t>(rng.next());
    storeBe<uint32_t>(buf.data() + field, new_val);
    const uint16_t expected = internetChecksum(buf.data(), buf.size());
    EXPECT_EQ(checksumUpdate32(before, old_val, new_val), expected);
}

TEST_P(ChecksumUpdateTest, Incremental16MatchesRecompute)
{
    Rng rng(GetParam() * 977 + 5);
    std::vector<uint8_t> buf(20);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.next());
    const size_t field = 2 * rng.below(10);
    const uint16_t before = internetChecksum(buf.data(), buf.size());
    const uint16_t old_val = loadBe<uint16_t>(buf.data() + field);
    const uint16_t new_val = static_cast<uint16_t>(rng.next());
    storeBe<uint16_t>(buf.data() + field, new_val);
    const uint16_t expected = internetChecksum(buf.data(), buf.size());
    EXPECT_EQ(checksumUpdate16(before, old_val, new_val), expected);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, ChecksumUpdateTest,
                         ::testing::Range<uint64_t>(0, 24));


TEST(Pcap, WriteReadRoundTrip)
{
    std::vector<Packet> packets;
    for (int i = 0; i < 5; ++i) {
        PacketSpec spec;
        spec.flow = {0x0a000000u + static_cast<uint32_t>(i), 0xc0a80001,
                     1000, 53, kIpProtoUdp};
        spec.totalLen = 64 + 10 * i;
        Packet pkt = PacketFactory::build(spec);
        pkt.arrivalNs = 1000000ULL * (i + 1) + i;
        packets.push_back(std::move(pkt));
    }
    const std::string path = ::testing::TempDir() + "/ehdl_test.pcap";
    writePcap(path, packets);
    const std::vector<Packet> back = readPcap(path);
    ASSERT_EQ(back.size(), packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
        EXPECT_EQ(back[i].bytes(), packets[i].bytes());
        EXPECT_EQ(back[i].arrivalNs, packets[i].arrivalNs);
        EXPECT_EQ(back[i].id, i + 1);
    }
}

TEST(Pcap, RandomizedRoundTrip)
{
    // Property sweep: arbitrary payload bytes, lengths and timestamps
    // (including sub-microsecond deltas and identical stamps) must
    // survive write->read bit-for-bit.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 7919);
        std::vector<Packet> packets;
        uint64_t ns = 0;
        const unsigned n = 1 + rng.below(40);
        for (unsigned i = 0; i < n; ++i) {
            std::vector<uint8_t> bytes(14 + rng.below(1500));
            for (uint8_t &b : bytes)
                b = static_cast<uint8_t>(rng.next());
            Packet pkt(std::move(bytes));
            ns += rng.below(2'000'000'000u);  // may stay equal (delta 0)
            pkt.arrivalNs = ns;
            packets.push_back(std::move(pkt));
        }
        const std::string path = ::testing::TempDir() + "/ehdl_rand.pcap";
        writePcap(path, packets);
        const std::vector<Packet> back = readPcap(path);
        ASSERT_EQ(back.size(), packets.size()) << "seed " << seed;
        for (size_t i = 0; i < packets.size(); ++i) {
            EXPECT_EQ(back[i].bytes(), packets[i].bytes())
                << "seed " << seed << " packet " << i;
            EXPECT_EQ(back[i].arrivalNs, packets[i].arrivalNs)
                << "seed " << seed << " packet " << i;
        }
    }
}

TEST(Pcap, ZeroLengthRecordRoundTrips)
{
    // A record with incl_len 0 becomes an empty packet. Building it from
    // an empty byte vector must not memcpy from its (null) data().
    std::vector<Packet> packets;
    packets.emplace_back(std::vector<uint8_t>{});
    packets.push_back(PacketFactory::build(PacketSpec{}));
    const std::string path = ::testing::TempDir() + "/ehdl_zero.pcap";
    writePcap(path, packets);
    const std::vector<Packet> back = readPcap(path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].size(), 0u);
    EXPECT_EQ(back[1].bytes(), packets[1].bytes());
}

TEST(Pcap, RejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "/ehdl_bad.pcap";
    std::ofstream(path, std::ios::binary) << "not a pcap file at all....";
    EXPECT_THROW(readPcap(path), FatalError);
    EXPECT_THROW(readPcap("/nonexistent/nope.pcap"), FatalError);
}

}  // namespace
}  // namespace ehdl::net
