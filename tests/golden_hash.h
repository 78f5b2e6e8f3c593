/**
 * @file
 * Shared helpers of the golden fixtures (core_golden_test,
 * sys_golden_test): an FNV-1a hash over exact bit patterns.
 */

#ifndef SIMR_TESTS_GOLDEN_HASH_H
#define SIMR_TESTS_GOLDEN_HASH_H

#include <cstdint>
#include <cstring>
#include <string>

namespace simr::golden
{

/** FNV-1a over the exact bit patterns of what it is fed. */
class Fnv
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        add(static_cast<uint64_t>(s.size()));
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace simr::golden

#endif // SIMR_TESTS_GOLDEN_HASH_H
