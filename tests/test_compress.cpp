// Unit and property tests for the LZ block codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fidr/common/bytes.h"
#include "fidr/common/rng.h"
#include "fidr/compress/lz.h"
#include "fidr/hash/sha256.h"
#include "fidr/workload/content.h"

namespace fidr {
namespace {

/**
 * Alternating random and single-byte-run segments of random lengths:
 * the adversarial shape for LZ token edges.
 */
Buffer
random_mixture(Rng &rng, std::size_t size)
{
    Buffer data(size);
    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t seg =
            std::min<std::size_t>(1 + rng.next_below(700), size - pos);
        if (rng.next_bool(0.5)) {
            const auto fill = static_cast<std::uint8_t>(rng.next_u64());
            for (std::size_t i = 0; i < seg; ++i)
                data[pos + i] = fill;
        } else {
            for (std::size_t i = 0; i < seg; ++i)
                data[pos + i] = static_cast<std::uint8_t>(rng.next_u64());
        }
        pos += seg;
    }
    return data;
}

/**
 * A 220 KiB mostly-compressible input with three repeated random
 * blocks, at distances 65535 (the largest encodable offset), 65536 and
 * 70000, so the match finder meets candidates beyond the window.
 */
Buffer
window_spanning_input()
{
    Buffer data;
    for (std::uint64_t id = 0; id < 55; ++id) {
        const Buffer chunk = workload::make_chunk_content(id, 0.95);
        data.insert(data.end(), chunk.begin(), chunk.end());
    }
    Rng rng(65535);
    for (const auto &[at, distance] :
         {std::pair<std::size_t, std::size_t>{1000, 65535},
          {80000, 65536},
          {150000, 70000}}) {
        for (std::size_t i = 0; i < 500; ++i) {
            data[at + i] = static_cast<std::uint8_t>(rng.next_u64());
            data[at + distance + i] = data[at + i];
        }
    }
    return data;
}

/**
 * Random bytes, single-byte runs, and copies of earlier bytes at random
 * distances (often shorter than the copy, the overlapping case): real
 * back-references for both the match finder and the decoder's copies.
 */
Buffer
back_reference_mixture(Rng &rng, std::size_t size)
{
    Buffer data(size);
    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t seg =
            std::min<std::size_t>(1 + rng.next_below(700), size - pos);
        const std::uint64_t kind = pos == 0 ? 0 : rng.next_below(3);
        const auto fill = static_cast<std::uint8_t>(rng.next_u64());
        const std::size_t distance = 1 + rng.next_below(pos == 0 ? 1 : pos);
        for (std::size_t i = 0; i < seg; ++i) {
            if (kind == 0)
                data[pos + i] = static_cast<std::uint8_t>(rng.next_u64());
            else if (kind == 1)
                data[pos + i] = fill;
            else
                data[pos + i] = data[pos + i - distance];
        }
        pos += seg;
    }
    return data;
}

/**
 * Byte-serial reference decoder: the format read one byte at a time,
 * with no bound checks beyond what each step needs.  lz_decompress must
 * agree with it on every verdict and every output byte.
 */
std::optional<Buffer>
reference_decompress(const Buffer &block)
{
    if (block.size() < 5)
        return std::nullopt;
    const std::size_t raw_size = load_le(block.data() + 1, 4);
    if (block[0] == 0) {
        if (block.size() != 5 + raw_size)
            return std::nullopt;
        return Buffer(block.begin() + 5, block.end());
    }
    if (block[0] != 1)
        return std::nullopt;
    Buffer out;
    std::size_t pos = 5;
    auto read_ext = [&](std::size_t &len) {
        std::uint8_t b = 255;
        while (b == 255 && pos < block.size()) {
            b = block[pos++];
            len += b;
        }
        return b != 255;
    };
    while (out.size() < raw_size) {
        if (pos >= block.size())
            return std::nullopt;
        const std::uint8_t token = block[pos++];
        std::size_t lit_len = token >> 4;
        if (lit_len == 15 && !read_ext(lit_len))
            return std::nullopt;
        for (std::size_t i = 0; i < lit_len; ++i) {
            if (pos >= block.size())
                return std::nullopt;
            out.push_back(block[pos++]);
        }
        if (out.size() >= raw_size)
            break;
        if (pos + 2 > block.size())
            return std::nullopt;
        const std::size_t offset = block[pos] | (block[pos + 1] << 8);
        pos += 2;
        std::size_t match_len = (token & 0xF) + 4;
        if ((token & 0xF) == 15 && !read_ext(match_len))
            return std::nullopt;
        if (offset == 0 || offset > out.size() ||
            out.size() + match_len > raw_size)
            return std::nullopt;
        for (std::size_t i = 0; i < match_len; ++i)
            out.push_back(out[out.size() - offset]);
    }
    if (out.size() != raw_size)
        return std::nullopt;
    return out;
}

/** Appends one hand-encoded sequence (match_len 0 = literals only). */
void
append_sequence(Buffer &block, const Buffer &literals, std::size_t offset,
                std::size_t match_len)
{
    auto ext = [&](std::size_t extra) {
        for (; extra >= 255; extra -= 255)
            block.push_back(255);
        block.push_back(static_cast<std::uint8_t>(extra));
    };
    const std::size_t lit_code = std::min<std::size_t>(literals.size(), 15);
    const std::size_t match_code =
        match_len > 0 ? std::min<std::size_t>(match_len - 4, 15) : 0;
    block.push_back(static_cast<std::uint8_t>(lit_code << 4 | match_code));
    if (lit_code == 15)
        ext(literals.size() - 15);
    block.insert(block.end(), literals.begin(), literals.end());
    if (match_len > 0) {
        block.push_back(static_cast<std::uint8_t>(offset));
        block.push_back(static_cast<std::uint8_t>(offset >> 8));
        if (match_code == 15)
            ext(match_len - 19);
    }
}

Buffer
lz_header(std::size_t raw_size)
{
    Buffer block(5);
    block[0] = 1;
    store_le(block.data() + 1, raw_size, 4);
    return block;
}

Buffer
roundtrip(const Buffer &input)
{
    const Buffer block = lz_compress(input);
    EXPECT_LE(block.size(), lz_max_compressed_size(input.size()));
    EXPECT_EQ(lz_raw_size(block), input.size());
    Result<Buffer> out = lz_decompress(block);
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? out.take() : Buffer{};
}

TEST(Lz, EmptyInput)
{
    EXPECT_EQ(roundtrip(Buffer{}), Buffer{});
}

TEST(Lz, TinyInputsStored)
{
    for (std::size_t n = 1; n <= 8; ++n) {
        Buffer data(n, 'q');
        EXPECT_EQ(roundtrip(data), data) << "n " << n;
    }
}

TEST(Lz, AllZerosCompressesHard)
{
    const Buffer data(4096, 0);
    const Buffer block = lz_compress(data);
    EXPECT_LT(block.size(), 128u);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, RepeatedPhraseCompresses)
{
    Buffer data;
    const std::string phrase = "deduplication and compression! ";
    while (data.size() < 4096)
        data.insert(data.end(), phrase.begin(), phrase.end());
    data.resize(4096);
    const Buffer block = lz_compress(data);
    EXPECT_LT(block.size(), data.size() / 4);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, RandomDataFallsBackToStored)
{
    Rng rng(1);
    Buffer data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    const Buffer block = lz_compress(data);
    // Incompressible escape: never expands beyond header.
    EXPECT_EQ(block.size(), lz_max_compressed_size(data.size()));
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, OverlappingMatchRle)
{
    // "abcabcabc..." forces matches with offset < length.
    Buffer data;
    for (int i = 0; data.size() < 3000; ++i)
        data.push_back(static_cast<std::uint8_t>('a' + (i % 3)));
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, LongLiteralRunsUseExtensionBytes)
{
    // >15 literals before a match exercises the 255-run coding.
    Rng rng(2);
    Buffer data(600);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    // Append a compressible tail so the block is not stored verbatim.
    data.insert(data.end(), 3000, 0x55);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, LongMatchesUseExtensionBytes)
{
    Buffer data(70000, 0x77);  // Match length >> 19 (15+4).
    data[0] = 1;
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, FastLevelRoundTrips)
{
    const Buffer data = workload::make_chunk_content(1234, 0.5);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, TargetCompressibilityHonored)
{
    // The workload synthesizer promises ~comp_ratio reduction; the
    // codec must deliver it within tolerance (paper sets 50%).
    for (double ratio : {0.25, 0.5, 0.75}) {
        double total_in = 0, total_out = 0;
        for (std::uint64_t id = 0; id < 50; ++id) {
            const Buffer chunk =
                workload::make_chunk_content(id, ratio);
            total_in += static_cast<double>(chunk.size());
            total_out += static_cast<double>(lz_compress(chunk).size());
        }
        const double measured = 1.0 - total_out / total_in;
        EXPECT_NEAR(measured, ratio, 0.08) << "target " << ratio;
    }
}

// Golden identity: the SHA-256 of every lz_compress output over a
// fixed corpus.  The stored bytes of every chunk (and so every model
// metric downstream) follow from the kernel's match decisions and token
// encoding; a faster kernel must leave this digest where it is.
TEST(LzGolden, CompressedCorpusDigestIsPinned)
{
    const double ratios[] = {0.0, 0.25, 0.5, 0.75, 0.95};
    Sha256 sha;
    auto absorb = [&](const Buffer &input) {
        sha.update(lz_compress(input, LzLevel::kFast));
    };
    for (const double ratio : ratios) {
        for (std::uint64_t id = 0; id < 256; ++id)
            absorb(workload::make_chunk_content(id, ratio));
    }
    for (int seed = 0; seed < 8; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 17);
        for (int trial = 0; trial < 25; ++trial)
            absorb(random_mixture(rng, rng.next_below(12000)));
    }
    for (std::size_t size = 0; size <= 9000; ++size)
        absorb(workload::make_chunk_content(size, ratios[size % 5], size));
    absorb(window_spanning_input());
    absorb(Buffer(70000, 0x77));
    EXPECT_EQ(sha.finish().to_hex(),
              "8d1fa4919ed5f8089abe701ff0803c2ed943d2dffe89cecf8d935f3fa299c866");
}

TEST(LzDecode, RejectsTruncatedHeader)
{
    EXPECT_FALSE(lz_decompress(Buffer{1, 2}).is_ok());
    EXPECT_EQ(lz_raw_size(Buffer{1, 2}), 0u);
}

TEST(LzDecode, RejectsUnknownMethod)
{
    Buffer block{9, 0, 0, 0, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsStoredSizeMismatch)
{
    Buffer block{0, 10, 0, 0, 0, 'x'};  // Claims 10 raw, carries 1.
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsTruncatedTokenStream)
{
    Buffer data(4096, 0);
    Buffer block = lz_compress(data);
    block.resize(block.size() / 2);
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsBadMatchOffset)
{
    // method=1, raw=8, token: 0 literals + match len 4, offset 9 (> window).
    Buffer block{1, 8, 0, 0, 0, 0x00, 9, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsZeroOffset)
{
    Buffer block{1, 8, 0, 0, 0, 0x10, 'a', 0, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsRawSizeBeyondPayloadBound)
{
    // A 10-byte payload can expand to at most 2550 bytes; a header
    // claiming 4 GiB must be rejected before anything is allocated.
    Buffer block = lz_header(0xFFFFFFFFull);
    block.insert(block.end(), {0x0F, 'a', 1, 0, 255, 255, 255, 255, 255, 9});
    const Result<Buffer> out = lz_decompress(block);
    ASSERT_FALSE(out.is_ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption);

    // The densest encodable block, one literal and then one long
    // match (1 + 19 + 255 * 100 bytes from 105), stays within it.
    Buffer dense = lz_header(1 + 19 + 255 * 100);
    append_sequence(dense, {'a'}, 1, 19 + 255 * 100);
    EXPECT_EQ(dense.size(), 5u + 105u);
    const Result<Buffer> dense_out = lz_decompress(dense);
    ASSERT_TRUE(dense_out.is_ok()) << dense_out.status().to_string();
    EXPECT_EQ(dense_out.value(), Buffer(1 + 19 + 255 * 100, 'a'));
}

TEST(LzDecode, OverlappingMatchGrid)
{
    // Every offset 1-16 against every length 4-40: the pattern copies
    // with offset < length replicate the last `offset` bytes.  Each
    // match either ends the block exactly at raw_size or is followed
    // by a literal tail.
    for (std::size_t offset = 1; offset <= 16; ++offset) {
        for (std::size_t len = 4; len <= 40; ++len) {
            for (const bool tail : {false, true}) {
                Buffer expected;
                for (std::size_t i = 0; i < offset; ++i)
                    expected.push_back(static_cast<std::uint8_t>('a' + i));
                for (std::size_t i = 0; i < len; ++i)
                    expected.push_back(expected[expected.size() - offset]);
                const Buffer literals(expected.begin(),
                                      expected.begin() + offset);
                const Buffer suffix{'x', 'y', 'z'};
                if (tail)
                    expected.insert(expected.end(), suffix.begin(),
                                    suffix.end());
                Buffer block = lz_header(expected.size());
                append_sequence(block, literals, offset, len);
                if (tail)
                    append_sequence(block, suffix, 0, 0);
                const Result<Buffer> out = lz_decompress(block);
                ASSERT_TRUE(out.is_ok()) << out.status().to_string();
                ASSERT_EQ(out.value(), expected)
                    << "offset " << offset << " len " << len;
                ASSERT_EQ(reference_decompress(block), expected);

                // One byte too many in the match overruns raw_size.
                if (!tail) {
                    Buffer over = lz_header(expected.size());
                    append_sequence(over, literals, offset, len + 1);
                    ASSERT_FALSE(lz_decompress(over).is_ok());
                }
            }
        }
    }
}

/** Byte positions of the fields in a well-formed LZ block. */
struct TokenFields {
    std::vector<std::size_t> lengths;  ///< Tokens and extension bytes.
    std::vector<std::size_t> offsets;  ///< Low byte of each offset.
};

TokenFields
token_fields(const Buffer &block)
{
    TokenFields fields;
    if (block.size() < 5 || block[0] != 1)
        return fields;
    const std::size_t raw_size = lz_raw_size(block);
    std::size_t pos = 5;
    std::size_t produced = 0;
    auto skip_ext = [&](std::size_t &len) {
        std::uint8_t b = 255;
        while (b == 255) {
            fields.lengths.push_back(pos);
            b = block[pos++];
            len += b;
        }
    };
    while (produced < raw_size) {
        fields.lengths.push_back(pos);
        const std::uint8_t token = block[pos++];
        std::size_t lit_len = token >> 4;
        if (lit_len == 15)
            skip_ext(lit_len);
        pos += lit_len;
        produced += lit_len;
        if (produced >= raw_size)
            break;
        fields.offsets.push_back(pos);
        pos += 2;
        std::size_t match_len = (token & 0xF) + 4;
        if ((token & 0xF) == 15)
            skip_ext(match_len);
        produced += match_len;
    }
    return fields;
}

TEST(LzDecode, AgreesWithReferenceOnStructuredMutations)
{
    Rng rng(4242);
    int rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        const Buffer input =
            i % 2 == 0
                ? workload::make_chunk_content(i, 0.25 + 0.1 * (i % 7))
                : back_reference_mixture(rng, 1 + rng.next_below(6000));
        Buffer block = lz_compress(input);
        const TokenFields fields = token_fields(block);
        auto pick = [&](const std::vector<std::size_t> &v) {
            return v[rng.next_below(v.size())];
        };
        switch (rng.next_below(6)) {
        case 0:  // Bit flips anywhere, header included.
            for (std::uint64_t f = 1 + rng.next_below(3); f > 0; --f)
                block[rng.next_below(block.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.next_below(8));
            break;
        case 1:  // Truncation.
            block.resize(rng.next_below(block.size()));
            break;
        case 2:  // Inflated literal or match length.
            if (!fields.lengths.empty()) {
                const std::size_t at = pick(fields.lengths);
                block[at] = static_cast<std::uint8_t>(
                    block[at] | (rng.next_bool(0.5) ? 0xF0 : 0x0F));
            }
            break;
        case 3:  // Zero offset.
            if (!fields.offsets.empty()) {
                const std::size_t at = pick(fields.offsets);
                block[at] = block[at + 1] = 0;
            }
            break;
        case 4:  // Offset past the bytes produced so far.
            if (!fields.offsets.empty()) {
                const std::size_t at = pick(fields.offsets);
                const auto offset =
                    static_cast<std::uint16_t>(load_le(block.data() + at, 2) +
                                               1 + rng.next_below(5000));
                store_le(block.data() + at, offset, 2);
            }
            break;
        default:  // Header raw_size nudged up or down.
            store_le(block.data() + 1,
                     lz_raw_size(block) + rng.next_below(3) - 1, 4);
            break;
        }
        const std::optional<Buffer> expected = reference_decompress(block);
        const Result<Buffer> out = lz_decompress(block);
        ASSERT_EQ(out.is_ok(), expected.has_value()) << "case " << i;
        if (!expected) {
            ++rejected;
            continue;
        }
        ASSERT_EQ(out.value(), *expected) << "case " << i;
    }
    // The mutations must mostly produce invalid blocks, or the
    // comparison says little about the error paths.
    EXPECT_GT(rejected, 1500);
}

TEST(Lz, ReductionRatioHelper)
{
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 2048), 0.5);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 4096), 0.0);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 5000), 0.0);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(0, 0), 0.0);
}

// Property sweep: random content mixes round-trip.
enum class Mixture { kRunsAndNoise, kBackReferences };

class LzPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, Mixture>> {};

TEST_P(LzPropertyTest, RoundTripsRandomMixtures)
{
    const auto [seed, mixture] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 17);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t size = rng.next_below(12000);
        const Buffer data = mixture == Mixture::kRunsAndNoise
                                ? random_mixture(rng, size)
                                : back_reference_mixture(rng, size);
        const Buffer block = lz_compress(data);
        Result<Buffer> out = lz_decompress(block);
        ASSERT_TRUE(out.is_ok()) << out.status().to_string();
        ASSERT_EQ(out.value(), data) << "seed " << seed << " trial "
                                     << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LzPropertyTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(Mixture::kRunsAndNoise,
                                         Mixture::kBackReferences)));

}  // namespace
}  // namespace fidr
