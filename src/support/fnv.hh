/**
 * @file
 * FNV-1a, the hash behind the reproducibility witnesses: the program
 * fingerprint, the coverage, path, plan and corpus digests, the
 * session word, the seeds digest and the redial backoff jitter.
 */

#ifndef PE_SUPPORT_FNV_HH
#define PE_SUPPORT_FNV_HH

#include <cstdint>
#include <string_view>

namespace pe
{

/** The 64-bit FNV-1a offset basis and prime. */
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/**
 * The basis the fleet's digests were first defined with: the standard
 * basis short of its last decimal digit.  The plan, corpus, session
 * and seeds digests and the backoff jitter keep it, so their values
 * stay the ones every earlier build computed.
 */
constexpr uint64_t kFleetFnvOffset = 1469598103934665603ull;

/** One FNV-1a step over the 8 little-endian bytes of @p v. */
constexpr uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    return h;
}

/** FNV-1a over every byte of @p bytes, continuing from @p h. */
constexpr uint64_t
fnvMixBytes(uint64_t h, std::string_view bytes)
{
    for (char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
    return h;
}

} // namespace pe

#endif // PE_SUPPORT_FNV_HH
