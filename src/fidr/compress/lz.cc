#include "fidr/compress/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "fidr/common/bytes.h"

namespace fidr {
namespace {

constexpr std::uint8_t kMethodStored = 0;
constexpr std::uint8_t kMethodLz = 1;
constexpr std::size_t kHeaderSize = 5;

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr unsigned kMaxHashBits = 14;
constexpr unsigned kMinHashBits = 10;

/**
 * Hash-table bits sized to the input (~1 slot per position, clamped):
 * a 4 KB chunk gets a 4 K-slot table, so the per-call table fill stays
 * small on the hot path while big inputs keep the full table.
 * Deterministic: depends on size only.
 */
unsigned
hash_bits_for(std::size_t size)
{
    unsigned bits = kMinHashBits;
    while (bits < kMaxHashBits && (std::size_t{1} << bits) < size)
        ++bits;
    return bits;
}

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint32_t
hash4(std::uint32_t key, unsigned bits)
{
    // 64-bit golden-ratio mix of the 4-byte key: the index comes from
    // the top bits of the full product, which spreads low-entropy keys
    // (runs, text) far better than a 32-bit Knuth multiply.
    return static_cast<std::uint32_t>((key * 0x9E3779B185EBCA87ull) >>
                                      (64 - bits));
}

/** Length of the common prefix of `a` and `b`, with `b` ending at `limit`. */
std::size_t
match_length(const std::uint8_t *a, const std::uint8_t *b,
             const std::uint8_t *limit)
{
    const std::uint8_t *start = b;
    while (limit - b >= 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a, 8);
        std::memcpy(&y, b, 8);
        if (const std::uint64_t diff = x ^ y; diff != 0) {
            const int bits = std::endian::native == std::endian::little
                                 ? std::countr_zero(diff)
                                 : std::countl_zero(diff);
            return static_cast<std::size_t>(b - start) + bits / 8;
        }
        a += 8;
        b += 8;
    }
    while (b < limit && *a == *b) {
        ++a;
        ++b;
    }
    return static_cast<std::size_t>(b - start);
}

std::uint8_t *
emit_length(std::uint8_t *op, std::size_t extra)
{
    // 255-run extension coding shared by literal and match lengths.
    for (; extra >= 255; extra -= 255)
        *op++ = 255;
    *op++ = static_cast<std::uint8_t>(extra);
    return op;
}

/** Writes one sequence at `op`; match_len 0 ends the block. */
std::uint8_t *
emit_sequence(std::uint8_t *op, const std::uint8_t *lit, std::size_t lit_len,
              std::size_t offset, std::size_t match_len)
{
    const std::size_t lit_code = std::min<std::size_t>(lit_len, 15);
    const std::size_t match_code =
        match_len > 0 ? std::min<std::size_t>(match_len - kMinMatch, 15) : 0;
    *op++ = static_cast<std::uint8_t>((lit_code << 4) | match_code);
    if (lit_code == 15)
        op = emit_length(op, lit_len - 15);
    std::memcpy(op, lit, lit_len);
    op += lit_len;
    if (match_len > 0) {
        *op++ = static_cast<std::uint8_t>(offset & 0xFF);
        *op++ = static_cast<std::uint8_t>(offset >> 8);
        if (match_code == 15)
            op = emit_length(op, match_len - kMinMatch - 15);
    }
    return op;
}

/**
 * Per-thread head table and token buffer: lz_compress runs per 4 KB
 * chunk, and reallocating both for every chunk would dominate the
 * kernel.  The head table is refilled per call, so output depends only
 * on the input.
 */
struct Scratch {
    std::vector<std::uint32_t> head;
    Buffer out;
};

Buffer
make_stored(std::span<const std::uint8_t> input)
{
    Buffer out(kHeaderSize + input.size());
    out[0] = kMethodStored;
    store_le(out.data() + 1, input.size(), 4);
    std::copy(input.begin(), input.end(), out.begin() + kHeaderSize);
    return out;
}

}  // namespace

std::size_t
lz_max_compressed_size(std::size_t raw_size)
{
    return kHeaderSize + raw_size;
}

Buffer
lz_compress(std::span<const std::uint8_t> input, LzLevel)
{
    const std::size_t n = input.size();
    if (n < kMinMatch + 1 || n > 0xFFFFFFFFull)
        return make_stored(input);

    // Greedy single-probe match finder over a 64 KiB window.  A slot
    // holds `last - position`, so the zero-filled table reads back as
    // `last`: a readable position no candidate check accepts (it is
    // never below `pos`).  The probe thus needs no empty-slot branch;
    // the 4-byte key compare comes first and is the only branch taken
    // per literal position.
    thread_local Scratch scratch;
    const unsigned bits = hash_bits_for(n);
    const std::size_t last = n - kMinMatch;  // Last position with a key.
    const std::size_t slots = std::size_t{1} << bits;
    scratch.head.resize(std::max(scratch.head.size(), slots));
    std::uint32_t *head = scratch.head.data();
    std::memset(head, 0, slots * sizeof(*head));
    // Tokens never outgrow the literals they carry by more than the
    // 255-run extension bytes plus one sequence's fixed fields.
    scratch.out.resize(std::max(scratch.out.size(), kHeaderSize + n +
                                                        n / 255 + 16));
    std::uint8_t *const out = scratch.out.data();
    std::uint8_t *op = out + kHeaderSize;
    const std::uint8_t *base = input.data();

    std::size_t pos = 0;
    std::size_t lit_start = 0;
    while (pos <= last) {
        const std::uint32_t key = load32(base + pos);
        std::uint32_t &slot = head[hash4(key, bits)];
        const std::size_t cand = last - slot;
        slot = static_cast<std::uint32_t>(last - pos);
        if (load32(base + cand) != key || pos - cand - 1 >= kMaxOffset) {
            ++pos;
            continue;
        }
        const std::size_t len =
            kMinMatch + match_length(base + cand + kMinMatch,
                                     base + pos + kMinMatch, base + n);
        op = emit_sequence(op, base + lit_start, pos - lit_start,
                           pos - cand, len);
        // Index every position covered by the match so later data can
        // reference into it.
        const std::size_t end = pos + len;
        for (++pos; pos < end && pos <= last; ++pos)
            head[hash4(load32(base + pos), bits)] =
                static_cast<std::uint32_t>(last - pos);
        pos = end;
        lit_start = pos;
        if (static_cast<std::size_t>(op - out) + (n - pos) >= n)
            return make_stored(input);  // No better than stored already.
    }
    op = emit_sequence(op, base + lit_start, n - lit_start, 0, 0);

    const auto size = static_cast<std::size_t>(op - out);
    if (size >= kHeaderSize + n)
        return make_stored(input);
    out[0] = kMethodLz;
    store_le(out + 1, n, 4);
    return Buffer(out, op);
}

Result<Buffer>
lz_decompress(std::span<const std::uint8_t> block)
{
    if (block.size() < kHeaderSize)
        return Status::corruption("block shorter than header");
    const std::uint8_t method = block[0];
    const std::size_t raw_size = load_le(block.data() + 1, 4);

    if (method == kMethodStored) {
        if (block.size() != kHeaderSize + raw_size)
            return Status::corruption("stored block size mismatch");
        return Buffer(block.begin() + kHeaderSize, block.end());
    }
    if (method != kMethodLz)
        return Status::corruption("unknown method byte");
    // No payload byte expands to more than 255 output bytes; bound the
    // untrusted header before allocating for it.
    if (raw_size > 255 * (block.size() - kHeaderSize))
        return Status::corruption("raw size exceeds payload bound");

    Buffer out(raw_size);
    std::uint8_t *const begin = out.data();
    std::uint8_t *const end = begin + raw_size;
    std::uint8_t *op = begin;
    const std::uint8_t *ip = block.data() + kHeaderSize;
    const std::uint8_t *const ip_end = block.data() + block.size();

    auto read_ext = [&](std::size_t &len) -> bool {
        std::uint8_t b;
        do {
            if (ip == ip_end)
                return false;
            b = *ip++;
            len += b;
        } while (b == 255);
        return true;
    };

    while (op != end) {
        if (ip == ip_end)
            return Status::corruption("truncated token stream");
        const std::uint8_t token = *ip++;
        std::size_t lit_len = token >> 4;
        if (lit_len == 15 && !read_ext(lit_len))
            return Status::corruption("truncated literal length");
        if (lit_len > static_cast<std::size_t>(ip_end - ip))
            return Status::corruption("truncated literals");
        if (lit_len > static_cast<std::size_t>(end - op))
            return Status::corruption("decompressed size mismatch");
        std::memcpy(op, ip, lit_len);
        op += lit_len;
        ip += lit_len;
        if (op == end)
            break;

        if (ip_end - ip < 2)
            return Status::corruption("truncated match offset");
        const std::size_t offset = load_le(ip, 2);
        ip += 2;
        std::size_t match_len = (token & 0xF) + kMinMatch;
        if ((token & 0xF) == 15 && !read_ext(match_len))
            return Status::corruption("truncated match length");
        if (offset == 0 || offset > static_cast<std::size_t>(op - begin))
            return Status::corruption("match offset out of window");
        if (match_len > static_cast<std::size_t>(end - op))
            return Status::corruption("match overruns raw size");
        // An overlapping match (offset < length) repeats the last
        // `offset` bytes; copying from the pattern start with a span
        // that doubles each step keeps every memcpy disjoint.
        const std::uint8_t *src = op - offset;
        for (std::uint8_t *const stop = op + match_len; op != stop;) {
            const std::size_t step = std::min<std::size_t>(
                static_cast<std::size_t>(op - src),
                static_cast<std::size_t>(stop - op));
            std::memcpy(op, src, step);
            op += step;
        }
    }
    return out;
}

std::size_t
lz_raw_size(std::span<const std::uint8_t> block)
{
    if (block.size() < kHeaderSize)
        return 0;
    return load_le(block.data() + 1, 4);
}

double
lz_reduction_ratio(std::size_t raw_size, std::size_t compressed_size)
{
    if (raw_size == 0 || compressed_size >= raw_size)
        return 0.0;
    return 1.0 - static_cast<double>(compressed_size) /
                     static_cast<double>(raw_size);
}

}  // namespace fidr
