/**
 * @file
 * Main memory implementation.
 */

#include "src/mem/main_memory.hh"

#include <algorithm>

#include "src/support/fnv.hh"
#include "src/support/status.hh"

namespace pe::mem
{

namespace
{

/** Words per digest step: one 64-bit chunk for each of four lanes. */
constexpr uint32_t groupWords = 8;
static_assert(pageWords % groupWords == 0,
              "a page must hold whole digest groups");
constexpr uint32_t pageGroups = pageWords / groupWords;

/** What every unwritten page reads; const, so nothing can write it. */
alignas(64) const int32_t zeroPage[pageWords] = {};

constexpr uint64_t
fnvPrimePow(uint32_t n)
{
    uint64_t m = 1;
    while (n--)
        m *= kFnvPrime;
    return m;
}

/** An unwritten page's whole effect on each digest lane. */
constexpr uint64_t zeroPageMul = fnvPrimePow(pageGroups);

} // namespace

MainMemory::MainMemory(uint32_t words)
    : _size(words),
      view((uint64_t{words} + pageWords - 1) / pageWords, zeroPage),
      frames(view.size())
{
    pe_assert(words > 0, "zero-sized memory");
}

int32_t
MainMemory::read(uint32_t addr) const
{
    pe_assert(valid(addr), "main memory read out of range: ", addr);
    return load(addr);
}

void
MainMemory::write(uint32_t addr, int32_t value)
{
    pe_assert(valid(addr), "main memory write out of range: ", addr);
    store(addr, value);
}

int32_t *
MainMemory::allocate(uint32_t page)
{
    frames[page] = std::make_unique<int32_t[]>(pageWords);
    view[page] = frames[page].get();
    return frames[page].get();
}

uint32_t
MainMemory::pagesWritten() const
{
    return static_cast<uint32_t>(
        std::count_if(frames.begin(), frames.end(),
                      [](const auto &frame) { return frame != nullptr; }));
}

uint64_t
MainMemory::digest() const
{
    uint64_t lane[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                        kFnvOffset ^ 3};
    // The lanes take every whole group; the last size % groupWords
    // words are folded into the final digest one by one.
    const uint32_t groups = _size / groupWords;
    for (uint32_t p = 0; p < frames.size(); ++p) {
        const uint32_t n = std::min(pageGroups, groups - p * pageGroups);
        const int32_t *frame = frames[p].get();
        if (!frame) {
            const uint64_t mul =
                n == pageGroups ? zeroPageMul : fnvPrimePow(n);
            for (uint64_t &l : lane)
                l *= mul;
            continue;
        }
        for (const int32_t *w = frame; w < frame + n * groupWords;
             w += groupWords) {
            for (int l = 0; l < 4; ++l) {
                uint64_t chunk =
                    static_cast<uint32_t>(w[2 * l]) |
                    (static_cast<uint64_t>(
                         static_cast<uint32_t>(w[2 * l + 1]))
                     << 32);
                lane[l] = (lane[l] ^ chunk) * kFnvPrime;
            }
        }
    }
    uint64_t digest = kFnvOffset;
    for (uint64_t l : lane)
        digest = (digest ^ l) * kFnvPrime;
    for (uint32_t a = groups * groupWords; a < _size; ++a)
        digest = (digest ^ static_cast<uint32_t>(load(a))) * kFnvPrime;
    return digest;
}

} // namespace pe::mem
