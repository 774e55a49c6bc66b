// Robustness fuzzing: every decoder that parses untrusted bytes must
// reject garbage with a Status — never crash, hang, or read out of
// bounds.  Inputs are random buffers plus mutated valid encodings
// (the harder case: mostly-right bytes).

#include <gtest/gtest.h>

#include "fidr/common/rng.h"
#include "fidr/compress/lz.h"
#include "fidr/nic/protocol.h"
#include "fidr/tables/hash_pbn.h"
#include "fidr/tables/lba_pba.h"
#include "fidr/workload/content.h"

namespace fidr {
namespace {

Buffer
random_buffer(Rng &rng, std::size_t max_len)
{
    Buffer out(rng.next_below(max_len + 1));
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

void
mutate(Rng &rng, Buffer &data)
{
    if (data.empty())
        return;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits; ++e) {
        const std::size_t pos = rng.next_below(data.size());
        data[pos] = static_cast<std::uint8_t>(rng.next_u64());
    }
    if (rng.next_bool(0.3))
        data.resize(rng.next_below(data.size() + 1));
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, LzDecompressNeverMisbehaves)
{
    Rng rng(1000 + GetParam());
    for (int i = 0; i < 300; ++i) {
        // Random garbage.
        const Buffer garbage = random_buffer(rng, 6000);
        Result<Buffer> out = lz_decompress(garbage);
        if (out.is_ok()) {
            // Rarely random bytes do parse; the output must then obey
            // the declared raw size.
            EXPECT_EQ(out.value().size(), lz_raw_size(garbage));
        }

        // Mutated valid block: either decodes consistently or fails.
        Buffer block = lz_compress(workload::make_chunk_content(i, 0.5));
        mutate(rng, block);
        Result<Buffer> out2 = lz_decompress(block);
        if (out2.is_ok())
            EXPECT_EQ(out2.value().size(), lz_raw_size(block));
    }
}

TEST_P(FuzzTest, ProtocolDecodeNeverMisbehaves)
{
    Rng rng(2000 + GetParam());
    for (int i = 0; i < 500; ++i) {
        Buffer wire;
        if (rng.next_bool(0.5)) {
            wire = random_buffer(rng, 3000);
        } else {
            wire = nic::encode_write(
                rng.next_u64(),
                random_buffer(rng, 2000));
            mutate(rng, wire);
        }
        // Decode as many frames as parse; offset must always advance
        // within bounds.
        std::size_t offset = 0;
        int frames = 0;
        while (offset < wire.size() && frames < 100) {
            const std::size_t before = offset;
            Result<nic::Frame> frame = nic::decode(wire, offset);
            if (!frame.is_ok())
                break;
            ASSERT_GT(offset, before);
            ASSERT_LE(offset, wire.size());
            ++frames;
        }
    }
}

TEST_P(FuzzTest, BucketDeserializeNeverMisbehaves)
{
    Rng rng(3000 + GetParam());
    for (int i = 0; i < 300; ++i) {
        // Wrong sizes reject outright.
        const Buffer garbage = random_buffer(rng, 5000);
        Result<tables::Bucket> parsed =
            tables::Bucket::deserialize(garbage);
        if (garbage.size() != kBucketSize) {
            EXPECT_FALSE(parsed.is_ok());
            continue;
        }
        // Exact-size random images either reject (count out of
        // range) or produce a bucket within capacity.
        if (parsed.is_ok())
            EXPECT_LE(parsed.value().size(), tables::Bucket::kCapacity);
    }

    // Exact-size fuzzing with plausible counts.
    for (int i = 0; i < 100; ++i) {
        Buffer image(kBucketSize);
        for (auto &b : image)
            b = static_cast<std::uint8_t>(rng.next_u64());
        image[0] = static_cast<std::uint8_t>(rng.next_below(120));
        image[1] = 0;
        Result<tables::Bucket> parsed =
            tables::Bucket::deserialize(image);
        if (parsed.is_ok()) {
            // Round-trip stability on accepted images.
            const Buffer again = parsed.value().serialize();
            Result<tables::Bucket> reparsed =
                tables::Bucket::deserialize(again);
            ASSERT_TRUE(reparsed.is_ok());
            EXPECT_EQ(reparsed.value().size(), parsed.value().size());
        }
    }
}

TEST_P(FuzzTest, SnapshotDeserializeNeverMisbehaves)
{
    Rng rng(4000 + GetParam());
    for (int i = 0; i < 200; ++i) {
        Buffer image;
        if (rng.next_bool(0.5)) {
            image = random_buffer(rng, 4000);
        } else {
            tables::LbaPbaTable table;
            for (int k = 0; k < 20; ++k)
                table.map_lba(rng.next_below(100), rng.next_below(50));
            image = table.serialize();
            mutate(rng, image);
        }
        Result<tables::LbaPbaTable> parsed =
            tables::LbaPbaTable::deserialize(image);
        if (parsed.is_ok())
            EXPECT_TRUE(parsed.value().validate().is_ok());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace fidr
