// Structured-mutation tests for the container log's on-device metadata
// decoders: the 64-byte commit header at the end of every sealed slot
// and the dual-slot (A/B) superblock.  Every case corrupts pristine
// device bytes in one structured way (each byte flipped, each field
// set to 0 and to its maximum, a torn — zeroed — tail, seeded random
// bit flips), runs ContainerLog::recover() on a fresh log object over
// the same devices, checks the rebuilt directory, and restores the
// bytes for the next case.  Recovery must never crash, must adopt
// every untouched container at its original id and sizes, and must
// never adopt a mutated header under a wrong id or wrong sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fidr/common/bytes.h"
#include "fidr/common/rng.h"
#include "fidr/hash/sha256.h"
#include "fidr/tables/container.h"

namespace fidr::tables {
namespace {

constexpr std::uint64_t kContainerBytes = 64 * 1024;
constexpr std::uint64_t kSuperblockInterval = 2;

/** One header field: byte offset and width. */
struct Field {
    const char *name;
    std::size_t offset;
    std::size_t width;
};

/** Commit-header layout (container.cc encode_header). */
constexpr Field kHeaderFields[] = {
    {"magic", 0, 8},         {"version", 8, 4}, {"id", 12, 8},
    {"bytes", 20, 8},        {"payload", 28, 8}, {"checksum", 36, 8},
};

/** Bytes of the header an encoder actually writes (the rest is zero
 *  padding up to kContainerHeaderBytes). */
constexpr std::size_t kHeaderEncoded = 44;

/** A sealed log over two SSDs with one discarded container, plus the
 *  payload of every chunk still live, captured before any mutation. */
struct Rig {
    ssd::SsdArray array;
    ContainerLog log;
    std::map<std::uint64_t, ContainerInfo> sealed;  ///< By id.
    std::vector<std::pair<ChunkLocation, Buffer>> chunks;
    std::uint64_t discarded_id = 0;
    std::uint64_t open_id = 0;

    Rig() : array(2, [] {
                ssd::SsdConfig c;
                c.capacity_bytes = 16 * kMiB;
                return c;
            }()),
            log(array, kContainerBytes, kSuperblockInterval)
    {
        Rng rng(0xC0417A1Bull);
        for (int i = 0; i < 260; ++i) {
            Buffer data(500 + rng.next_below(3000));
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next_u64());
            const auto loc = log.append(data).take();
            chunks.emplace_back(loc, std::move(data));
        }
        EXPECT_TRUE(log.flush().is_ok());
        // GC discards the oldest container: a trimmed slot and a
        // mandatory superblock write, so the directory has a hole.
        while (!log.sealed(discarded_id))
            ++discarded_id;
        EXPECT_TRUE(log.discard(discarded_id).is_ok());
        std::erase_if(chunks, [this](const auto &chunk) {
            return chunk.first.container_id == discarded_id;
        });
        for (std::uint64_t id = 0; id < log.containers(); ++id) {
            if (log.sealed(id))
                sealed.emplace(id, *log.info_of(id));
        }
        open_id = log.containers() - 1;
        EXPECT_GE(sealed.size(), 6u);
        EXPECT_GE(log.superblock_seq(), 2u);
    }

    std::uint64_t
    header_addr(std::uint64_t id) const
    {
        const ContainerInfo &info = sealed.at(id);
        return info.base_addr + log.slot_stride() - kContainerHeaderBytes;
    }

    Buffer
    read(std::size_t ssd, std::uint64_t addr, std::uint64_t len)
    {
        return array.at(ssd).read(addr, len).take();
    }

    void
    write(std::size_t ssd, std::uint64_t addr, const Buffer &bytes)
    {
        ASSERT_TRUE(array.at(ssd).write(addr, bytes).is_ok());
    }
};

bool
same_placement(const ContainerInfo &a, const ContainerInfo &b)
{
    return a.ssd_index == b.ssd_index && a.slot == b.slot &&
           a.base_addr == b.base_addr && a.bytes == b.bytes &&
           a.payload_bytes == b.payload_bytes;
}

/**
 * Recovers a fresh log over the rig's devices and checks the directory
 * against the pristine one.  `mutated` is the id whose header was
 * corrupted (or UINT64_MAX for none): it may be dropped (its checksum
 * caught the damage) or adopted unchanged (the damage missed every
 * decoded byte), but never adopted anywhere else or with other sizes.
 * Returns the recovered log's superblock sequence number.
 */
std::uint64_t
expect_recovers(Rig &rig, std::uint64_t mutated, const std::string &label)
{
    ContainerLog log(rig.array, kContainerBytes, kSuperblockInterval);
    const Status status = log.recover();
    EXPECT_TRUE(status.is_ok()) << label << ": " << status.to_string();
    if (!status.is_ok())
        return 0;

    const ContainerInfo *mutated_info =
        rig.sealed.contains(mutated) ? &rig.sealed.at(mutated) : nullptr;
    for (const auto &[id, original] : rig.sealed) {
        if (id == mutated)
            continue;
        EXPECT_TRUE(log.sealed(id)) << label << ": lost container " << id;
        const auto info = log.info_of(id);
        if (info) {
            EXPECT_TRUE(same_placement(*info, original))
                << label << ": container " << id << " moved";
        }
    }
    EXPECT_FALSE(log.sealed(rig.discarded_id))
        << label << ": discarded container resurrected";
    for (std::uint64_t id = 0; id < log.containers(); ++id) {
        if (!log.sealed(id))
            continue;
        const ContainerInfo info = *log.info_of(id);
        if (id == mutated) {
            EXPECT_TRUE(same_placement(info, *mutated_info))
                << label << ": mutated header adopted with wrong sizes";
            continue;
        }
        EXPECT_TRUE(rig.sealed.contains(id))
            << label << ": adopted unknown id " << id;
        if (mutated_info) {
            EXPECT_FALSE(info.ssd_index == mutated_info->ssd_index &&
                         info.slot == mutated_info->slot)
                << label << ": mutated slot adopted under id " << id;
        }
    }
    // Ids never go backwards: the next container is past every id
    // the pristine log had handed out.
    EXPECT_GE(log.containers() - 1, rig.open_id) << label;
    for (const auto &[loc, data] : rig.chunks) {
        if (loc.container_id == mutated && !log.sealed(mutated))
            continue;
        Result<Buffer> out = log.read(loc);
        EXPECT_TRUE(out.is_ok() && out.value() == data)
            << label << ": chunk in container " << loc.container_id;
    }
    return log.superblock_seq();
}

/** Applies `mutate` to the header of container `id`, recovers, checks
 *  and restores the pristine bytes. */
template <typename Mutate>
void
mutate_header(Rig &rig, std::uint64_t id, const std::string &label,
              Mutate &&mutate)
{
    const std::size_t ssd = rig.sealed.at(id).ssd_index;
    const std::uint64_t addr = rig.header_addr(id);
    const Buffer pristine = rig.read(ssd, addr, kContainerHeaderBytes);
    Buffer bytes = pristine;
    mutate(bytes);
    ASSERT_NE(bytes, pristine) << label;
    rig.write(ssd, addr, bytes);
    expect_recovers(rig, id, label + " (container " + std::to_string(id) +
                                 ")");
    rig.write(ssd, addr, pristine);
}

/** The oldest surviving sealed container and the newest one (past the
 *  last superblock's high-water mark when the cadence lagged). */
std::vector<std::uint64_t>
targets(const Rig &rig)
{
    return {rig.sealed.begin()->first, rig.sealed.rbegin()->first};
}

TEST(ContainerHeaderMutation, PristineDeviceRecoversEverything)
{
    Rig rig;
    expect_recovers(rig, UINT64_MAX, "pristine");
}

TEST(ContainerHeaderMutation, EveryByteFlipped)
{
    Rig rig;
    for (const std::uint64_t id : targets(rig)) {
        for (std::size_t i = 0; i < kContainerHeaderBytes; ++i) {
            mutate_header(rig, id, "flip byte " + std::to_string(i),
                          [i](Buffer &b) { b[i] ^= 0xFF; });
        }
    }
}

TEST(ContainerHeaderMutation, FieldsAtZeroAndMax)
{
    Rig rig;
    for (const std::uint64_t id : targets(rig)) {
        for (const Field &f : kHeaderFields) {
            const std::uint64_t max =
                f.width == 8 ? UINT64_MAX : (1ull << (8 * f.width)) - 1;
            for (const std::uint64_t value : {std::uint64_t{0}, max}) {
                Buffer probe =
                    rig.read(rig.sealed.at(id).ssd_index,
                             rig.header_addr(id), kContainerHeaderBytes);
                if (load_le(probe.data() + f.offset, f.width) == value)
                    continue;  // Already that value: not a mutation.
                mutate_header(
                    rig, id,
                    std::string(f.name) + " = " + std::to_string(value),
                    [&f, value](Buffer &b) {
                        store_le(b.data() + f.offset, value, f.width);
                    });
            }
        }
    }
}

TEST(ContainerHeaderMutation, TornTailIsZeroed)
{
    Rig rig;
    for (const std::uint64_t id : targets(rig)) {
        // Every cut inside the encoded bytes: the header write stopped
        // after `keep` bytes and the rest never reached the media.
        for (std::size_t keep = 0; keep < kHeaderEncoded; ++keep) {
            mutate_header(rig, id, "torn after " + std::to_string(keep),
                          [keep](Buffer &b) {
                              std::fill(b.begin() +
                                            static_cast<std::ptrdiff_t>(keep),
                                        b.end(), 0);
                          });
        }
    }
}

TEST(ContainerHeaderMutation, SeededBitFlips)
{
    Rig rig;
    Rng rng(0x5EED0C7Dull);
    for (int round = 0; round < 300; ++round) {
        const std::uint64_t id = targets(rig)[round % 2];
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        std::vector<std::pair<std::size_t, int>> bits;
        for (int f = 0; f < flips; ++f)
            bits.emplace_back(rng.next_below(kContainerHeaderBytes),
                              static_cast<int>(rng.next_below(8)));
        Buffer before = rig.read(rig.sealed.at(id).ssd_index,
                                 rig.header_addr(id),
                                 kContainerHeaderBytes);
        Buffer after = before;
        for (const auto &[byte, bit] : bits)
            after[byte] ^= static_cast<std::uint8_t>(1u << bit);
        if (after == before)
            continue;  // The flips cancelled out.
        mutate_header(rig, id, "seeded round " + std::to_string(round),
                      [&bits](Buffer &b) {
                          for (const auto &[byte, bit] : bits)
                              b[byte] ^= static_cast<std::uint8_t>(1u << bit);
                      });
    }
}

TEST(ContainerHeaderMutation, ResealedForeignVersionIsReported)
{
    // A header whose checksum is valid but whose format version is not
    // ours was written by another layout, not torn: recovery reports
    // it instead of silently dropping the container.
    Rig rig;
    const std::uint64_t id = rig.sealed.begin()->first;
    const std::size_t ssd = rig.sealed.at(id).ssd_index;
    Buffer header = rig.read(ssd, rig.header_addr(id), kContainerHeaderBytes);
    store_le(header.data() + 8, kContainerFormatVersion + 1, 4);
    store_le(header.data() + 36, fnv1a64({header.data(), 36}), 8);
    rig.write(ssd, rig.header_addr(id), header);
    ContainerLog log(rig.array, kContainerBytes, kSuperblockInterval);
    EXPECT_EQ(log.recover().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// A/B superblock (SSD 0's reserved region, one 4 KiB slot each).

constexpr std::uint64_t kSuperblockSlot = 4096;

/** Encoded superblock bytes for a two-SSD array: 32-byte fixed part,
 *  one 8-byte slot high-water per SSD, 8-byte checksum. */
constexpr std::size_t kSuperblockEncoded = 32 + 8 * 2 + 8;

constexpr Field kSuperblockFields[] = {
    {"magic", 0, 8},          {"version", 8, 4},  {"seq", 12, 8},
    {"next_seal_id", 20, 8},  {"ssd_count", 28, 4},
    {"high_water0", 32, 8},   {"high_water1", 40, 8},
    {"checksum", 48, 8},
};

/** One structured superblock mutation. */
struct SuperblockMutation {
    std::string label;
    std::size_t offset = 0;
    std::size_t width = 0;
    /** Field store (width > 0) or byte XOR / zeroed tail (width 0). */
    std::uint64_t value = 0;
    enum class Kind { kStore, kFlip, kTornAfter } kind = Kind::kStore;
};

std::vector<SuperblockMutation>
superblock_mutations()
{
    std::vector<SuperblockMutation> out;
    for (std::size_t i = 0; i < kSuperblockEncoded; ++i) {
        out.push_back({"flip byte " + std::to_string(i), i, 1, 0xFF,
                       SuperblockMutation::Kind::kFlip});
    }
    for (const Field &f : kSuperblockFields) {
        const std::uint64_t max =
            f.width == 8 ? UINT64_MAX : (1ull << (8 * f.width)) - 1;
        for (const std::uint64_t value : {std::uint64_t{0}, max}) {
            out.push_back({std::string(f.name) + " = " +
                               std::to_string(value),
                           f.offset, f.width, value,
                           SuperblockMutation::Kind::kStore});
        }
    }
    for (std::size_t keep = 0; keep < kSuperblockEncoded; keep += 4) {
        out.push_back({"torn after " + std::to_string(keep), keep, 0, 0,
                       SuperblockMutation::Kind::kTornAfter});
    }
    return out;
}

/** Applies `m` to superblock slot `slot`; false if it changed nothing. */
bool
apply(Rig &rig, std::uint64_t slot, const SuperblockMutation &m)
{
    const std::uint64_t addr = slot * kSuperblockSlot;
    Buffer bytes = rig.read(0, addr, kSuperblockSlot);
    const Buffer pristine = bytes;
    switch (m.kind) {
    case SuperblockMutation::Kind::kFlip:
        bytes[m.offset] ^= static_cast<std::uint8_t>(m.value);
        break;
    case SuperblockMutation::Kind::kStore:
        store_le(bytes.data() + m.offset, m.value, m.width);
        break;
    case SuperblockMutation::Kind::kTornAfter:
        std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(m.offset),
                  bytes.end(), 0);
        break;
    }
    if (bytes == pristine)
        return false;
    rig.write(0, addr, bytes);
    return true;
}

TEST(SuperblockMutation, OneCorruptSlotFallsBackToTheTwin)
{
    Rig rig;
    const std::uint64_t newest = rig.log.superblock_seq();
    const Buffer pristine = rig.read(0, 0, 2 * kSuperblockSlot);
    for (const std::uint64_t slot : {std::uint64_t{0}, std::uint64_t{1}}) {
        // Slot seq % 2 holds version seq; the twin holds seq - 1.
        const std::uint64_t survivor =
            slot == newest % 2 ? newest - 1 : newest;
        for (const SuperblockMutation &m : superblock_mutations()) {
            if (!apply(rig, slot, m))
                continue;
            const std::string label =
                "superblock slot " + std::to_string(slot) + " " + m.label;
            const std::uint64_t seq =
                expect_recovers(rig, UINT64_MAX, label);
            EXPECT_EQ(seq, survivor) << label;
            rig.write(0, 0, pristine);
        }
    }
}

TEST(SuperblockMutation, BothCorruptRebuildsFromTheHeaderScan)
{
    Rig rig;
    const Buffer pristine = rig.read(0, 0, 2 * kSuperblockSlot);
    const std::vector<SuperblockMutation> mutations = superblock_mutations();
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        // Pair every mutation of slot 0 with a different one of slot 1.
        const SuperblockMutation &a = mutations[i];
        const SuperblockMutation &b = mutations[(i + 7) % mutations.size()];
        const bool changed_a = apply(rig, 0, a);
        const bool changed_b = apply(rig, 1, b);
        if (changed_a && changed_b) {
            const std::string label = "slot 0 " + a.label + ", slot 1 " +
                                      b.label;
            ContainerLog log(rig.array, kContainerBytes,
                             kSuperblockInterval);
            const Status status = log.recover();
            ASSERT_TRUE(status.is_ok()) << label << ": "
                                        << status.to_string();
            // No superblock survived: the header scan alone rebuilt
            // the directory, so every adopted container is a tail
            // container.
            EXPECT_EQ(log.superblock_seq(), 0u) << label;
            EXPECT_EQ(log.stats().containers_recovered, rig.sealed.size())
                << label;
            EXPECT_EQ(log.stats().tail_adopted,
                      log.stats().containers_recovered)
                << label;
            expect_recovers(rig, UINT64_MAX, label);
        }
        rig.write(0, 0, pristine);
    }
}

TEST(SuperblockMutation, BothSlotsZeroedRebuildsFromTheHeaderScan)
{
    Rig rig;
    rig.write(0, 0, Buffer(2 * kSuperblockSlot, 0));
    ContainerLog log(rig.array, kContainerBytes, kSuperblockInterval);
    ASSERT_TRUE(log.recover().is_ok());
    EXPECT_EQ(log.superblock_seq(), 0u);
    EXPECT_EQ(log.stats().containers_recovered, rig.sealed.size());
    EXPECT_EQ(log.stats().tail_adopted, rig.sealed.size());
    expect_recovers(rig, UINT64_MAX, "both superblocks zeroed");
}

}  // namespace
}  // namespace fidr::tables
