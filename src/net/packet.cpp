#include "net/packet.hpp"

#include <cstring>

#include "common/logging.hpp"

namespace ehdl::net {

Packet::Packet(std::vector<uint8_t> bytes, uint32_t headroom)
{
    buf_.resize(headroom + bytes.size());
    // An empty vector may hand out a null data(), which memcpy forbids
    // even for a zero-byte copy (a zero-length pcap record gets here).
    if (!bytes.empty())
        std::memcpy(buf_.data() + headroom, bytes.data(), bytes.size());
    start_ = headroom;
    end_ = headroom + static_cast<uint32_t>(bytes.size());
}

Packet::Packet(uint32_t len, uint32_t headroom)
{
    buf_.resize(headroom + len);
    start_ = headroom;
    end_ = headroom + len;
}

uint8_t
Packet::at(uint32_t off) const
{
    if (off >= size())
        panic("Packet::at out of bounds: ", off, " >= ", size());
    return buf_[start_ + off];
}

void
Packet::set(uint32_t off, uint8_t value)
{
    if (off >= size())
        panic("Packet::set out of bounds: ", off, " >= ", size());
    buf_[start_ + off] = value;
}

bool
Packet::adjustHead(int32_t delta)
{
    const int64_t new_start = static_cast<int64_t>(start_) + delta;
    if (new_start < 0 || new_start > static_cast<int64_t>(end_))
        return false;
    start_ = static_cast<uint32_t>(new_start);
    return true;
}

bool
Packet::adjustTail(int32_t delta)
{
    const int64_t new_end = static_cast<int64_t>(end_) + delta;
    if (new_end < static_cast<int64_t>(start_) ||
        new_end > static_cast<int64_t>(buf_.size()))
        return false;
    end_ = static_cast<uint32_t>(new_end);
    return true;
}

std::vector<uint8_t>
Packet::bytes() const
{
    return {buf_.begin() + start_, buf_.begin() + end_};
}

void
Packet::bytesInto(std::vector<uint8_t> &out) const
{
    out.assign(buf_.begin() + start_, buf_.begin() + end_);
}

void
Packet::assignBytes(const std::vector<uint8_t> &bytes, uint32_t headroom)
{
    // Exact size so tailroom matches a freshly built packet; shrinking a
    // vector keeps its capacity, so reuse still avoids reallocation.
    buf_.resize(headroom + bytes.size());
    // Same guard as the constructor: an empty packet replays here.
    if (!bytes.empty())
        std::memcpy(buf_.data() + headroom, bytes.data(), bytes.size());
    start_ = headroom;
    end_ = headroom + static_cast<uint32_t>(bytes.size());
}

}  // namespace ehdl::net
