/**
 * @file
 * Versioned buffer implementation.
 */

#include "src/mem/versioned_buffer.hh"

#include "src/support/status.hh"

namespace pe::mem
{

const VersionedBuffer::Line *
VersionedBuffer::find(uint32_t tag) const
{
    if (table.empty())
        return nullptr;
    size_t slot = slotOf(tag, table.size());
    for (;;) {
        const Line &line = table[slot];
        if (line.tag == tag)
            return &line;
        if (line.tag == emptyTag)
            return nullptr;
        slot = (slot + 1) & (table.size() - 1);
    }
}

VersionedBuffer::Line &
VersionedBuffer::findOrInsert(uint32_t tag)
{
    if (table.empty() || (lineCount + 1) * 4 > table.size() * 3)
        grow();
    size_t slot = slotOf(tag, table.size());
    for (;;) {
        Line &line = table[slot];
        if (line.tag == tag)
            return line;
        if (line.tag == emptyTag) {
            line.tag = tag;
            ++lineCount;
            return line;
        }
        slot = (slot + 1) & (table.size() - 1);
    }
}

void
VersionedBuffer::grow()
{
    std::vector<Line> old = std::move(table);
    size_t newSize = old.empty() ? initialSlots : old.size() * 2;
    table.assign(newSize, Line{});
    for (const Line &line : old) {
        if (line.tag == emptyTag)
            continue;
        size_t slot = slotOf(line.tag, newSize);
        while (table[slot].tag != emptyTag)
            slot = (slot + 1) & (newSize - 1);
        table[slot] = line;
    }
}

void
VersionedBuffer::write(uint32_t addr, int32_t value)
{
    Line &line = findOrInsert(addr / wordsPerLine);
    uint32_t w = addr % wordsPerLine;
    uint8_t bit = static_cast<uint8_t>(1u << w);
    if (!(line.mask & bit)) {
        line.mask |= bit;
        ++wordCount;
    }
    line.data[w] = value;
}

void
VersionedBuffer::commitTo(MainMemory &main) const
{
    // Distinct words only, so the final image is independent of the
    // table's iteration order.
    for (const Line &line : table) {
        if (line.tag == emptyTag)
            continue;
        uint64_t base = uint64_t{line.tag} * wordsPerLine;
        for (uint32_t w = 0; w < wordsPerLine; ++w) {
            if (line.mask & (1u << w)) {
                pe_assert(base + w < main.size(),
                          "commit out of range: ", base + w);
                main.store(static_cast<uint32_t>(base + w), line.data[w]);
            }
        }
    }
}

void
VersionedBuffer::clear()
{
    // Gang-invalidate: drop every line but keep the table storage so a
    // reused path ID does not re-pay the growth.
    for (Line &line : table) {
        line.tag = emptyTag;
        line.mask = 0;
    }
    lineCount = 0;
    wordCount = 0;
}

int32_t
MemCtx::read(uint32_t addr) const
{
    pe_assert(mainMem->valid(addr), "MemCtx read out of range: ", addr);
    return readResolved(addr);
}

void
MemCtx::write(uint32_t addr, int32_t value)
{
    pe_assert(mainMem->valid(addr), "MemCtx write out of range: ", addr);
    writeResolved(addr, value);
}

} // namespace pe::mem
