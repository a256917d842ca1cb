#include "compiler/host_image.hh"

#include <cstring>

#include "common/logging.hh"
#include "mem/ecc.hh"
#include "sim/chip.hh"

namespace tsp {

void
HostImage::push(Entry e)
{
    Vec320 v;
    v.bytes = e.bytes;
    eccComputeVec(v);
    e.ecc = v.ecc;
    entries_.push_back(std::move(e));
}

void
HostImage::add(const GlobalAddr &addr,
               const std::array<std::uint8_t, kLanes> &bytes)
{
    push({addr, bytes});
}

void
HostImage::addInt8(const GlobalAddr &addr, const std::int8_t *values,
                   int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    Entry e;
    e.addr = addr;
    e.bytes.fill(0);
    for (int i = 0; i < count; ++i)
        e.bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(values[i]);
    push(std::move(e));
}

void
HostImage::addInt32Quad(const GlobalAddr quad[4],
                        const std::int32_t *values, int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    for (int k = 0; k < 4; ++k) {
        Entry e;
        e.addr = quad[k];
        e.bytes.fill(0);
        for (int i = 0; i < count; ++i) {
            const auto u = static_cast<std::uint32_t>(values[i]);
            e.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
        }
        push(std::move(e));
    }
}

void
HostImage::addFp32Quad(const GlobalAddr quad[4], const float *values,
                       int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    for (int k = 0; k < 4; ++k) {
        Entry e;
        e.addr = quad[k];
        e.bytes.fill(0);
        for (int i = 0; i < count; ++i) {
            std::uint32_t u;
            std::memcpy(&u, &values[i], sizeof(u));
            e.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
        }
        push(std::move(e));
    }
}

void
HostImage::applyTo(Chip &chip) const
{
    for (const Entry &e : entries_) {
        chip.mem(e.addr.hem, e.addr.slice)
            .backdoorWriteEncoded(e.addr.addr, e.bytes, e.ecc);
    }
}

} // namespace tsp
