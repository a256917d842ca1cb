/**
 * @file
 * The DMA manifest: initial SRAM contents (weights, biases, scales,
 * constant pads, input activations) that the host emplaces over PCIe
 * before kicking off execution (paper II item 6: "a lightweight DMA
 * engine to emplace a model onto the TSP memory").
 */

#ifndef TSP_COMPILER_HOST_IMAGE_HH
#define TSP_COMPILER_HOST_IMAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"

namespace tsp {

class Chip;

/** Words the host DMA writes before program start. */
class HostImage
{
  public:
    /**
     * One 320-byte word destined for one address, with its SECDED
     * check bits computed once when the word is queued (the image is
     * restaged on every rearm; its words never change).
     */
    struct Entry
    {
        GlobalAddr addr;
        std::array<std::uint8_t, kLanes> bytes;
        std::array<std::uint16_t, kSuperlanes> ecc{};
    };

    /** Queues a full 320-byte word. */
    void add(const GlobalAddr &addr,
             const std::array<std::uint8_t, kLanes> &bytes);

    /** Queues a word whose 320 lanes are the given int8 values. */
    void addInt8(const GlobalAddr &addr, const std::int8_t *values,
                 int count);

    /**
     * Queues a quad of words carrying one int32 per lane across four
     * consecutive addresses (a ConstQuad's backing data).
     */
    void addInt32Quad(const GlobalAddr quad[4],
                      const std::int32_t *values, int count);

    /** Queues a quad of words carrying one fp32 per lane. */
    void addFp32Quad(const GlobalAddr quad[4], const float *values,
                     int count);

    /** @return queued entries. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** @return total bytes to transfer (PCIe model input). */
    std::size_t
    totalBytes() const
    {
        return entries_.size() * kLanes;
    }

    /**
     * Writes every entry into @p chip via backdoor DMA: the stored
     * words and check bits equal a MemSlice::backdoorWrite() of each
     * entry's bytes, with or without ECC.
     */
    void applyTo(Chip &chip) const;

  private:
    /** Queues @p e after encoding its check bits (every add path). */
    void push(Entry e);

    std::vector<Entry> entries_;
};

} // namespace tsp

#endif // TSP_COMPILER_HOST_IMAGE_HH
